"""Identities every chart must satisfy, decided in the chart's
representation: the vector Laplacian and the two second-order identities
of a conformal Killing field, and the divergence formula of sqrt g.  The
tests check them on every fixture; the package itself needs none of them."""

from dataclasses import dataclass, field

import sympy as sp

from poissonsym.exprcore import Expr, Verdict
from poissonsym.geom import (MetricSpace, VectorField, covariant_derivative,
                             gradient, laplace_beltrami)


def vector_laplacian(M: MetricSpace, xi: VectorField) -> list:
    """Delta_g xi^i = g^{jk} nabla_j nabla_k xi^i as Exprs, computed in the
    representation of xi; nabla_j T^i_k, for T = nabla xi, is the covariant
    derivative of the vector T^i_k (fixed k) less Gamma^l_jk T^i_l."""
    R = M.representation(*xi.components)
    n, gam, gi = M.n, R.christoffel, R.g_inv
    T = [[R.normal(e) for e in row]
         for row in covariant_derivative(R, [R.of(e) for e in xi.components])]
    DT = [covariant_derivative(R, [row[k] for row in T]) for k in range(n)]
    return [R.expr(R.normal(sum(
        gi[j][k] * (DT[k][i][j] - sum(gam[l][j][k] * T[i][l]
                                      for l in range(n)))
        for j in range(n) for k in range(n)))) for i in range(n)]


@dataclass
class ConformalIdentityReport:
    vector_identity_ok: bool      # Delta xi^i + R^i_j xi^j = ((2-n)/2) g^{ij} mu_j
    factor_identity_ok: bool      # Delta mu = -(1/(n-1)) (xi^i R_,i + mu R)
    failures: list = field(default_factory=list)


def conformal_identity_checks(M: MetricSpace, xi: VectorField,
                              mu: Expr) -> ConformalIdentityReport:
    """Consistency identities satisfied by every conformal Killing field,
    decided in the representation of xi and mu."""
    R = M.representation(*xi.components, mu)
    n, c = M.n, M.coords
    X, mu = [R.of(e) for e in xi.components], R.of(mu)
    lap = [R.of(e) for e in vector_laplacian(M, xi)]
    grad_mu = gradient(R, mu)
    failures = [
        f"vector identity fails in component {i}" for i in range(n)
        if R.zero(lap[i] + sum(R.ricci[i][j] * X[j] for j in range(n))
                  - sp.Rational(2 - n, 2) * grad_mu[i]) is not Verdict.ZERO]
    vec_ok = not failures
    scal = R.scalar_curvature
    fac_ok = R.zero(laplace_beltrami(R, mu) + sp.Rational(1, n - 1) * (
        sum(X[i] * R.diff(scal, c[i]) for i in range(n)) + mu * scal)
    ) is Verdict.ZERO
    if not fac_ok:
        failures.append("conformal factor Laplacian identity fails")
    return ConformalIdentityReport(vec_ok, fac_ok, failures)


def divergence_formula_residuals(M: MetricSpace) -> list:
    """(sqrt g g^{ik})_,k + g^{pq} Gamma^i_pq sqrt g, per i (all should
    vanish), as Exprs computed in the chart's representation."""
    R = M.representation()
    n, c, sg, gi = M.n, M.coords, R.sqrt_det, R.g_inv
    return [R.expr(R.normal(sum(R.diff(sg * gi[i][k], c[k]) for k in range(n))
                            + R.gamma_contracted[i] * sg))
            for i in range(n)]
