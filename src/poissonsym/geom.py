"""Tensor calculus on a coordinate chart.

MetricSpace owns the metric g, its only input; det g, the inverse,
Christoffel symbols and curvature are derived once, lazily, in the chart's
representation (`_Rep`) and exposed as Exprs.  Sign conventions:

    R^i_jks = Gamma^i_jk,s - Gamma^i_js,k + Gamma^i_ls Gamma^l_jk
              - Gamma^i_lk Gamma^l_js
    R^i_s   = g^jk R^i_jks,   R = R^i_i

so that hyperbolic 3-space has R = -6.

Identities on a chart are computed in one of two representations, chosen
per call by `MetricSpace.representation` from whether the inputs convert:
`FieldRep`, the symbol table's jet fractions (`exprcore.JetFraction`),
jet polynomials over powers of the chart's irreducible denominators, where
an identity holds exactly when its difference is zero, and `ExprRep`, sympy expressions decided by the sampled
zero test `is_zero`.  A formula written once against their common methods
runs in either: each chart formula takes the representation R as its first
argument, its inputs are elements of R and so is its result (`M.exprs`
gives Exprs).  An identity involving sqrt g names it among its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from typing import Sequence

import sympy as sp

from .exprcore import (
    Expr,
    SymbolTable,
    Verdict,
    ZeroTestPolicy,
    eval_num,
    is_zero,
    normalize,
    sample,
)


class GeometryError(Exception):
    pass


class InternalConsistencyError(GeometryError):
    """Two computation routes for the same quantity disagreed."""


class MetricSpace:
    def __init__(self, coord_names: Sequence[str], g, signature: str = "riemannian",
                 box: dict[str, tuple[float, float]] | None = None):
        if signature not in ("riemannian", "lorentzian"):
            raise GeometryError(f"unknown signature '{signature}'")
        if len(coord_names) < 2:
            raise GeometryError("need dimension n >= 2")
        self.table = SymbolTable(coord_names)
        self.coords = self.table.coords
        self.n = len(self.coords)
        self.signature = signature
        self.box = dict(box or {})

        self.g = sp.Matrix([[self.table.expression(e) for e in row[:self.n]]
                            for row in g[:self.n]])
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if normalize(self.g[i, j] - self.g[j, i]) != 0:
                    raise GeometryError(f"metric not symmetric at ({i},{j})")
        self._check_nondegenerate()

    # -- policy / sampling ---------------------------------------------------

    def policy(self, seed: int = 1234) -> ZeroTestPolicy:
        box = {self.table.lookup(name): tuple(rng)
               for name, rng in self.box.items()}
        return ZeroTestPolicy(box=box, seed=seed)

    def sample_point(self, rng) -> dict[sp.Symbol, float]:
        pol = self.policy()
        return {s: pol.draw(rng, s) for s in self.coords}

    def _check_nondegenerate(self):
        """g is nonsingular at sample points of the safe box, with the
        declared signature: positive definite (riemannian) or exactly one
        negative eigenvalue (lorentzian)."""
        import random
        rng = random.Random(99)
        need = 0 if self.signature == "riemannian" else 1
        for _ in range(8):
            pt = self.sample_point(rng)
            negative, det = _inertia(
                [[eval_num(e, pt) for e in row] for row in self.g.tolist()])
            if abs(det) < 1e-12:
                raise GeometryError("metric singular inside the safe box")
            if negative != need:
                raise GeometryError(
                    f"metric is not {self.signature}: {negative} negative "
                    f"eigenvalue(s) at a sample point, need {need}")

    # -- tensors ---------------------------------------------------------------

    @cached_property
    def _positivity(self):
        """Coordinates whose safe box is strictly positive, as positive symbols.

        Lets sqrt(z**-6) reduce to z**-3 on upper-half-space charts where the
        box guarantees z > 0.
        """
        fwd, back = {}, {}
        for name, (lo, _hi) in self.box.items():
            if lo > 0:
                s = self.table.lookup(name)
                p = sp.Symbol(s.name, positive=True)
                fwd[s], back[p] = p, s
        return fwd, back

    @cached_property
    def sqrt_det(self) -> Expr:
        """sqrt |det g|; the signature check puts det g < 0 on the box of a
        lorentzian chart."""
        d = -self.det_g if self.signature == "lorentzian" else self.det_g
        fwd, back = self._positivity
        r = sp.sqrt(sp.factor(d.subs(fwd)))
        return normalize(sp.powsimp(r).subs(back))

    # the derived tensors, computed once in the chart's representation and
    # printed as Exprs (`_Rep`)
    det_g = cached_property(lambda self: self.exprs.det_g)
    g_inv = cached_property(lambda self: sp.Matrix(self.exprs.g_inv))
    christoffel = cached_property(lambda self: self.exprs.christoffel)
    gamma_contracted = cached_property(
        lambda self: self.exprs.gamma_contracted)
    riemann = cached_property(lambda self: self.exprs.riemann)
    ricci = cached_property(lambda self: self.exprs.ricci)
    scalar_curvature = cached_property(
        lambda self: self.exprs.scalar_curvature)

    # -- representations -----------------------------------------------------

    @cached_property
    def exprs(self) -> "ExprRep":
        return ExprRep(self)

    @cached_property
    def _chart(self) -> "ExprRep | FieldRep":
        """The representation the tensors are derived in: the field when g
        converts (every tensor derived from g then does), else Exprs."""
        rep = FieldRep(self)
        return rep if all(rep.converts(e) for e in self.g) else self.exprs

    def representation(self, *exprs) -> "ExprRep | FieldRep":
        """The chart's field representation when g and every expression
        given convert to the table's jet ring, else the Expr one."""
        rep = self._chart
        return rep if rep is not self.exprs and all(
            rep.converts(e) for e in exprs) else self.exprs


def _inertia(A: list) -> tuple:
    """(number of negative eigenvalues, determinant) of the real symmetric
    matrix A (a list of rows), by symmetric elimination, which keeps both
    (Sylvester's law of inertia).  When the diagonal is small against an
    off-diagonal A_ij, x_i -> x_i + x_j first makes A_ii a usable pivot."""
    if not A:
        return 0, 1.0
    m = range(len(A))
    k = max(m, key=lambda i: abs(A[i][i]))
    i, j = max(((i, j) for i in m for j in m),
               key=lambda ij: abs(A[ij[0]][ij[1]]))
    if 2 * abs(A[k][k]) < abs(A[i][j]):
        A = [[A[r][c] + (c == i) * A[r][j] for c in m] for r in m]
        A[i], k = [a + b for a, b in zip(A[i], A[j])], i
    p = A[k][k]
    if p == 0:                              # A is zero
        return 0, 0.0
    negative, det = _inertia([[A[r][c] - A[r][k] * A[k][c] / p
                               for c in m if c != k] for r in m if r != k])
    return negative + (p < 0), det * p


def _map(f, t):
    """f applied to t, an element, or to each element of nested lists t."""
    return [_map(f, e) for e in t] if isinstance(t, list) else f(t)


def _tensor(derive):
    """A tensor of the chart as a cached property of a representation:
    `derive` computes it in the chart's representation, and M.exprs on a
    rational chart prints the field's tensor instead of deriving it again."""
    def get(R):
        chart = R.space._chart
        return derive(R) if R is chart else _map(
            chart.expr, getattr(chart, derive.__name__))
    return cached_property(get)


class _Rep:
    """The chart's tensors in one representation, derived once from g with
    a subclass's `of` (Expr -> element), `expr` (element -> normalized
    Expr), `normal`, `diff`, `total_derivative` and `zero`.  A formula with
    sqrt g picks R with sqrt g or L in its inputs, or FieldRep.of raises."""

    def __init__(self, M: MetricSpace):
        self.space, self.table = M, M.table

    g = cached_property(lambda self: _map(self.of, self.space.g.tolist()))
    sqrt_det = cached_property(lambda self: self.of(self.space.sqrt_det))

    @cached_property
    def _cofactors(self) -> list:
        """(-1)^(i+j) M_ij of g, by Laplace expansion of remembered minors."""
        g, n = self.g, self.space.n
        @cache
        def minor(rows, cols):
            return sum((-1) ** k * g[rows[0]][c] * minor(
                rows[1:], cols[:k] + cols[k + 1:])
                for k, c in enumerate(cols) if g[rows[0]][c]) if rows else 1
        rest = [tuple(range(i)) + tuple(range(i + 1, n)) for i in range(n)]
        return [[(-1) ** (i + j) * minor(rest[i], rest[j]) for j in range(n)]
                for i in range(n)]

    @cached_property
    def det_g(self):
        """det g by g's first-row cofactors in the chart's representation;
        printed off it unexpanded, where d_j det g / det g cancels fast."""
        if self is not self.space._chart:
            return self.space._chart.det_g.as_expr()
        return self.normal(sum(self.g[0][j] * self._cofactors[0][j]
                               for j in range(self.space.n)))

    @cached_property
    def dlog_det(self) -> list:
        """d_j ln|det g| for each x^j, from this representation's det g."""
        d = self.det_g
        return [self.normal(self.diff(d, x) / d) for x in self.space.coords]

    @_tensor
    def g_inv(self):
        """g^{-1} = adj g / det g; det g is inverted once."""
        n, cof, inv_det = self.space.n, self._cofactors, self.det_g ** -1
        return [[self.normal(cof[j][i] * inv_det) for j in range(n)]
                for i in range(n)]

    @_tensor
    def christoffel(self):
        """Gamma^i_jk = (1/2) g^{il} (g_lj,k + g_lk,j - g_jk,l)."""
        n, c, g, gi = self.space.n, self.space.coords, self.g, self.g_inv
        dg = [[[self.diff(g[a][b], x) for x in c] for b in range(n)]
              for a in range(n)]
        gam = [[[None] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(j, n):
                    gam[i][j][k] = gam[i][k][j] = self.normal(
                        sp.Rational(1, 2) * sum(
                            gi[i][l] * (dg[l][j][k] + dg[l][k][j]
                                        - dg[j][k][l]) for l in range(n)))
        return gam

    @_tensor
    def gamma_contracted(self):
        """Gamma^i = g^{pq} Gamma^i_pq."""
        n, gi, gam = self.space.n, self.g_inv, self.christoffel
        return [self.normal(sum(gi[p][q] * gam[i][p][q]
                                for p in range(n) for q in range(n)))
                for i in range(n)]

    @_tensor
    def riemann(self):
        """R^i_jks, signed as in the module docstring."""
        n, c, gam = self.space.n, self.space.coords, self.christoffel
        return [[[[self.normal(
            self.diff(gam[i][j][k], c[s]) - self.diff(gam[i][j][s], c[k])
            + sum(gam[i][l][s] * gam[l][j][k] - gam[i][l][k] * gam[l][j][s]
                  for l in range(n)))
            for s in range(n)] for k in range(n)] for j in range(n)]
            for i in range(n)]

    @_tensor
    def ricci(self):
        """Mixed Ricci tensor R^i_s = g^{jk} R^i_jks."""
        n, gi, Rm = self.space.n, self.g_inv, self.riemann
        return [[self.normal(sum(gi[j][k] * Rm[i][j][k][s]
                                 for j in range(n) for k in range(n)))
                 for s in range(n)] for i in range(n)]

    @_tensor
    def scalar_curvature(self):
        return self.normal(sum(self.ricci[i][i]
                               for i in range(self.space.n)))

    @cached_property
    def jet_laplacian(self):
        """Delta_g u on the jet space, g^{ij} u_ij - Gamma^i u_i."""
        return laplace_beltrami(self, self.of(self.table.u))

    def constant(self, e) -> bool:
        """Whether every coordinate derivative of e is zero."""
        return all(self.zero(self.diff(e, x)) is Verdict.ZERO
                   for x in self.space.coords)


class ExprRep(_Rep):
    """Chart expressions as sympy Exprs; identities are decided by the
    sampled zero test."""

    def __init__(self, M: MetricSpace):
        super().__init__(M)
        self.policy = M.policy()

    def of(self, e) -> Expr:
        return e

    def expr(self, e) -> Expr:
        """e, which the caller has put in normal form."""
        return e

    def normal(self, e) -> Expr:
        return normalize(e)

    def diff(self, e, s: sp.Symbol) -> Expr:
        """de/ds; d/du carries the chain rule of the reserved symbols."""
        T = self.table
        return T.diff_u(e, s) if s == T.u else sp.diff(e, s)

    def total_derivative(self, e, k: int) -> Expr:
        """D_k = d/dx^k + u_k d/du + u_{ks} d/du_s on a jet expression,
        d/dx^k on a function of the coordinates."""
        T = self.table
        out = sp.diff(e, T.coords[k])
        if T.coordinate_only(e):
            return out
        out += T.jet1(k) * T.diff_u(e, T.u)
        for s in range(len(T.coords)):
            out += T.jet2(k, s) * sp.diff(e, T.jet1(s))
        return out

    def zero(self, e) -> Verdict:
        return is_zero(e, self.policy)


class FieldRep(_Rep):
    """Chart expressions as the symbol table's jet fractions; an identity
    holds exactly when its difference is zero."""

    def __init__(self, M: MetricSpace):
        super().__init__(M)
        self._elements = {}
        self._printed = {}
        self._derivatives = {}

    def converts(self, e) -> bool:
        if e not in self._elements:
            self._elements[e] = self.table.to_field(e)
        return self._elements[e] is not None

    def of(self, e):
        """e in the ring; every value derived from converted inputs by the
        rational formulas of this package converts."""
        if not self.converts(e):
            raise InternalConsistencyError(
                f"{e} lies outside the chart's jet ring")
        return self._elements[e]

    def expr(self, p, e: Expr | None = None) -> Expr:
        """p as e, an Expr of p built elsewhere, or else as the Expr normalize
        gives on the Expr route (p's denominator is factored, cancel's is
        expanded), printed once per element; recorded as the Expr's
        element."""
        if e is None:
            if p not in self._printed:
                self._printed[p] = normalize(p.as_expr())
            e = self._printed[p]
        self._elements[e] = p
        return e

    def normal(self, e):
        return e

    def diff(self, e, s: sp.Symbol):
        """de/ds, remembered: the solver differentiates the same metric,
        curvature and basis elements for every unit."""
        return self._remembered(self.table.field_diff, e, s)

    def total_derivative(self, e, k: int):
        """D_k e, remembered: Delta_g of the same b and mu recurs for every
        unit and generator."""
        return self._remembered(self.table.field_total_derivative, e, k)

    def _remembered(self, derive, e, arg):
        key = (e, arg)
        if key not in self._derivatives:
            self._derivatives[key] = derive(e, arg)
        return self._derivatives[key]

    def zero(self, e) -> Verdict:
        return Verdict.NONZERO if e else Verdict.ZERO


@dataclass
class VectorField:
    """Vector field with coordinate-only components (no u, jet or F_val,
    f_val, fprime_val dependence)."""

    space: MetricSpace
    components: list

    def __post_init__(self):
        M = self.space
        if len(self.components) != M.n:
            raise GeometryError("component count != chart dimension")
        self.components = [M.table.expression(c) for c in self.components]
        if not all(M.table.coordinate_only(c) for c in self.components):
            raise GeometryError("vector field depends on u, jet symbols "
                                "or F_val, f_val, fprime_val")

    def __getitem__(self, i: int) -> Expr:
        return self.components[i]


class ConformalVerdict(Enum):
    KILLING = "Killing"
    HOMOTHETY = "Homothety"
    CONFORMAL_KILLING = "ConformalKilling"
    NOT_CONFORMAL = "NotConformal"


@dataclass
class ConformalReport:
    verdict: ConformalVerdict
    mu: Expr
    max_residual: float
    warnings: list = field(default_factory=list)


def lie_derivative_metric(R, xi: list) -> list:
    """(L_xi g)_ij = xi^k g_ij,k + g_kj xi^k_,i + g_ik xi^k_,j, for the
    components xi of a vector field in the representation R; rows of
    normal elements of R."""
    M = R.space
    n, g, c = M.n, R.g, M.coords
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = sum(xi[k] * R.diff(g[i][j], c[k])
                      + g[k][j] * R.diff(xi[k], c[i])
                      + g[i][k] * R.diff(xi[k], c[j])
                      for k in range(n))
            out[i][j] = out[j][i] = R.normal(val)
    return out


def conformal_residual(R, xi: list) -> tuple:
    """(mu, L_xi g - mu g) in R with mu = trace(g^{-1} L_xi g) / n, for xi
    as in lie_derivative_metric.  mu is normal; the residual is not, as its
    consumers normalize, decide or split it."""
    lg = lie_derivative_metric(R, xi)
    n, g, gi = R.space.n, R.g, R.g_inv
    mu = R.normal(sum(gi[i][j] * lg[j][i]
                      for i in range(n) for j in range(n)) / n)
    return mu, [[lg[i][j] - mu * g[i][j] for j in range(n)] for i in range(n)]


def conformal_factor(M: MetricSpace, xi: VectorField) -> Expr:
    """mu alone, as an Expr, computed in the representation of xi."""
    R = M.representation(*xi.components)
    return R.expr(conformal_residual(R, [R.of(e) for e in xi.components])[0])


def covariant_derivative(R, xi: list) -> list:
    """nabla_k xi^i = xi^i_,k + Gamma^i_kl xi^l in R, as rows [i][k], for
    xi as in lie_derivative_metric; not normal."""
    n, c, gam = R.space.n, R.space.coords, R.christoffel
    return [[R.diff(xi[i], c[k]) + sum(gam[i][k][l] * xi[l] for l in range(n))
             for k in range(n)] for i in range(n)]


def gradient(R, phi) -> list:
    """grad phi^i = g^{ij} D_j phi in R for phi in R, a function of the
    coordinates (D_j is then d/dx^j) or of the jet space; not normal."""
    n, gi = R.space.n, R.g_inv
    d = [R.total_derivative(phi, j) for j in range(n)]
    return [sum(gi[i][j] * d[j] for j in range(n)) for i in range(n)]


def divergence(R, V: list):
    """div V = nabla_j V^j = D_j V^j + Gamma^j_jl V^l in R, normal, for
    components V in R as in gradient; raises InternalConsistencyError unless
    it is decided equal to D_j V^j + V^j d_j ln|det g| / 2, which is
    (1/2)(D_j V^j + D_j(det g V^j) / det g) = (1/sqrt g) D_j(sqrt g V^j)."""
    n, gam, dlog = R.space.n, R.christoffel, R.dlog_det
    dV = sum(R.total_derivative(V[j], j) for j in range(n))
    div = R.normal(dV + sum(gam[j][j][l] * V[l]
                            for j in range(n) for l in range(n)))
    alt = dV + sp.Rational(1, 2) * sum(dlog[j] * V[j] for j in range(n))
    if R.zero(R.normal(div - alt)) is not Verdict.ZERO:
        raise InternalConsistencyError("divergence forms disagree")
    return div


def conformal_kind(R, mu) -> ConformalVerdict:
    """KILLING when the factor mu (in R) is zero, HOMOTHETY when it is a
    nonzero constant, CONFORMAL_KILLING otherwise."""
    if R.zero(mu) is Verdict.ZERO:
        return ConformalVerdict.KILLING
    if R.constant(mu):
        return ConformalVerdict.HOMOTHETY
    return ConformalVerdict.CONFORMAL_KILLING


def conformal_check(M: MetricSpace, xi: VectorField,
                    seed: int = 1234) -> ConformalReport:
    """Classify xi as Killing / homothety / conformal Killing / none, in the
    representation of xi; seed seeds the sampled max_residual."""
    pol = M.policy(seed=seed)
    R = M.representation(*xi.components)
    comps = [R.of(e) for e in xi.components]
    mu, res = conformal_residual(R, comps)
    pairs = [(i, j) for i in range(M.n) for j in range(i, M.n)]
    verdicts = [R.zero(res[i][j]) for i, j in pairs]
    warnings = [f"inconclusive zero test for residual ({i},{j})"
                for (i, j), v in zip(pairs, verdicts)
                if v is Verdict.INCONCLUSIVE]
    nonzero = [e for e in (normalize(R.expr(res[i][j])) for i, j in pairs)
               if e != 0]
    max_res = max([0.0, *(v for e in nonzero for v in sample(e, pol)[0])])
    if any(v is not Verdict.ZERO for v in verdicts):
        return ConformalReport(ConformalVerdict.NOT_CONFORMAL, R.expr(mu),
                               max_res, warnings)
    # Lemma-1 cross-check: div(xi) = (n/2) mu
    div = divergence(R, comps)
    if R.zero(div - sp.Rational(M.n, 2) * mu) is not Verdict.ZERO:
        raise InternalConsistencyError("div(xi) != (n/2) mu for conformal field")
    kind = conformal_kind(R, mu)
    mu = sp.Integer(0) if kind is ConformalVerdict.KILLING else R.expr(mu)
    return ConformalReport(kind, mu, max_res, warnings)


def laplace_beltrami(R, phi):
    """Delta_g phi = div grad phi in R, normal, for phi as in gradient."""
    return divergence(R, gradient(R, phi))


def lie_bracket(xi: VectorField, eta: VectorField) -> VectorField:
    """[xi, eta]^i = xi^j eta^i_,j - eta^j xi^i_,j, computed in the
    representation of both."""
    if xi.space is not eta.space:
        raise GeometryError("vector fields live on different charts")
    M, c = xi.space, xi.space.coords
    R = M.representation(*xi.components, *eta.components)
    X, Y = ([R.of(e) for e in v.components] for v in (xi, eta))
    return VectorField(M, [
        R.expr(R.normal(sum(X[j] * R.diff(Y[i], c[j])
                            - Y[j] * R.diff(X[i], c[j]) for j in range(M.n))))
        for i in range(M.n)])
