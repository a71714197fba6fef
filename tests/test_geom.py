"""Tensor calculus: Christoffels against a finite-difference oracle,
curvature values, Laplace-Beltrami, conformal classification, brackets,
and the structural identities every chart must satisfy."""

import random

import pytest
import sympy as sp
import sympy.polys.euclidtools
import sympy.polys.rings

from poissonsym import catalog
from poissonsym.detsys import NonlinearityClass, _s2_s3, poisson_equation
from poissonsym.exprcore import Verdict, eval_num, is_zero, normalize
from poissonsym.geom import (FieldRep, GeometryError,
                             InternalConsistencyError, MetricSpace,
                             VectorField, ConformalVerdict, conformal_check,
                             conformal_residual, divergence, laplace_beltrami,
                             lie_bracket, lie_derivative_metric)

from chart_identities import (conformal_identity_checks,
                              divergence_formula_residuals)


@pytest.fixture(scope="module")
def flat():
    return MetricSpace(["x", "y", "z"],
                       [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.fixture(scope="module")
def hyperbolic():
    return catalog.load("hyperbolic3").space


@pytest.fixture(scope="module")
def sol():
    return catalog.load("sol").space


# ---------------------------------------------------------------------------
# Christoffel symbols

def christoffel_fd_oracle(M, pt, h=1e-6):
    """Gamma^i_jk at a point from central differences of the metric."""
    import numpy as np
    n = M.n
    gfun = lambda vals: np.array(
        [[eval_num(M.g[i, j], dict(zip(M.coords, vals)))
          for j in range(n)] for i in range(n)])
    g0 = gfun(pt)
    ginv = np.linalg.inv(g0)
    dg = []
    for k in range(n):
        up = list(pt); up[k] += h
        dn = list(pt); dn[k] -= h
        dg.append((gfun(up) - gfun(dn)) / (2 * h))
    gamma = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                gamma[i, j, k] = 0.5 * sum(
                    ginv[i, l] * (dg[k][l, j] + dg[j][l, k] - dg[l][j, k])
                    for l in range(n))
    return gamma


@pytest.mark.parametrize("name", ["hyperbolic3", "sol"])
def test_christoffel_matches_finite_difference(name):
    M = catalog.load(name).space
    rng = random.Random(31)
    gamma = M.christoffel
    for _ in range(10):
        pt = [M.sample_point(rng)[c] for c in M.coords]
        oracle = christoffel_fd_oracle(M, pt)
        for i in range(M.n):
            for j in range(M.n):
                for k in range(M.n):
                    val = eval_num(gamma[i][j][k], dict(zip(M.coords, pt)))
                    assert val == pytest.approx(oracle[i, j, k],
                                                abs=1e-4, rel=1e-4)


def test_flat_christoffels_vanish(flat):
    assert all(flat.christoffel[i][j][k] == 0
               for i in range(3) for j in range(3) for k in range(3))


def test_hyperbolic_christoffel_values(hyperbolic):
    M = hyperbolic
    z = M.coords[2]
    gamma = M.christoffel
    # x <-> 0, y <-> 1, z <-> 2
    assert normalize(gamma[0][0][2] + 1 / z) == 0
    assert normalize(gamma[2][0][0] - 1 / z) == 0
    assert normalize(gamma[2][2][2] + 1 / z) == 0


def test_sol_christoffel_values(sol):
    M = sol
    x = M.coords[0]
    gamma = M.christoffel
    assert normalize(gamma[0][1][1] + sp.exp(2 * x)) == 0
    assert normalize(gamma[0][2][2] - sp.exp(-2 * x)) == 0
    assert normalize(gamma[1][0][1] - 1) == 0
    assert normalize(gamma[2][0][2] + 1) == 0


# ---------------------------------------------------------------------------
# curvature

def test_flat_scalar_curvature(flat):
    assert flat.scalar_curvature == 0


def test_hyperbolic_scalar_curvature(hyperbolic):
    assert is_zero(hyperbolic.scalar_curvature + 6) is Verdict.ZERO


def test_heisenberg_scalar_curvature():
    M = catalog.load("heisenberg").space
    assert is_zero(M.scalar_curvature + 8) is Verdict.ZERO


# ---------------------------------------------------------------------------
# Laplace-Beltrami

def test_flat_laplacian_of_r_squared(flat):
    x, y, z = flat.coords
    assert normalize(laplace_beltrami(flat.exprs, x**2 + y**2 + z**2) - 6) == 0


def test_hyperbolic_laplacian_of_log(hyperbolic):
    # Delta_g phi = z^2 (phi_xx+phi_yy+phi_zz) - z phi_z for phi = phi(z):
    # z^2 (-1/z^2) - z (1/z) = -2
    z = hyperbolic.coords[2]
    assert is_zero(laplace_beltrami(hyperbolic.exprs, sp.log(z)) + 2,
                   hyperbolic.policy()) is Verdict.ZERO


def test_laplacian_of_constant(hyperbolic):
    assert laplace_beltrami(hyperbolic.exprs, sp.Integer(5)) == 0


@pytest.mark.parametrize("name", ["hyperbolic3", "sol", "h2xr"])
def test_laplacian_forms_agree_on_random_polynomials(name):
    """Divergence form against g^{ij} phi_ij - Gamma^i phi_i."""
    M = catalog.load(name).space
    rng = random.Random(7)
    pol = M.policy()
    for _ in range(20):
        phi = sum(sp.Rational(rng.randint(-3, 3))
                  * M.coords[rng.randrange(M.n)] ** rng.randint(0, 2)
                  * M.coords[rng.randrange(M.n)] ** rng.randint(0, 1)
                  for _ in range(3))
        direct = sum(M.g_inv[i, j] * sp.diff(phi, M.coords[i], M.coords[j])
                     for i in range(M.n) for j in range(M.n)) \
            - sum(M.gamma_contracted[i] * sp.diff(phi, M.coords[i])
                  for i in range(M.n))
        assert is_zero(laplace_beltrami(M.exprs, phi) - direct,
                       pol) is Verdict.ZERO


HALF_SPACE = [["1/z^2", "0", "0"], ["0", "1/z^2", "0"], ["0", "0", "1/z^2"]]


@pytest.mark.parametrize("what", ["christoffel", "det_g", "inconclusive"])
@pytest.mark.parametrize("route", ["field", "exprs"])
def test_divergence_cross_check_raises(route, what, monkeypatch):
    """Delta_g, div xi and the jet Laplacian in H share one cross-check,
    which raises unless the two divergence forms are decided equal: break
    the Christoffel symbols (zeroed), det g (times z) or the zero test
    (inconclusive)."""
    M = MetricSpace(["x", "y", "z"], HALF_SPACE, box={"z": (0.5, 2.0)})
    x, y, z = M.coords
    R = M.representation() if route == "field" else M.exprs
    assert isinstance(R, FieldRep) == (route == "field")
    # f = exp(u) keeps H on the Expr route
    cls = (NonlinearityClass.power(M.table.u, 5, 3) if route == "field"
           else NonlinearityClass.exponential(M.table.u))
    assert cls.representation(M) is R
    if what == "christoffel":
        zero = R.of(sp.Integer(0))
        monkeypatch.setattr(R, "christoffel", [[[zero] * 3] * 3] * 3)
    elif what == "det_g":
        monkeypatch.setattr(R, "det_g", R.det_g * R.of(z))
    else:
        monkeypatch.setattr(R, "zero", lambda e: Verdict.INCONCLUSIVE)
    with pytest.raises(InternalConsistencyError):
        laplace_beltrami(R, R.of(x**2 + z**2))
    with pytest.raises(InternalConsistencyError):
        divergence(R, [R.of(e) for e in (x, y, z)])
    with pytest.raises(InternalConsistencyError):
        poisson_equation(M, cls)


def test_chart_arithmetic_takes_no_gcd(monkeypatch):
    """Once sphere3's g, g^-1 and sqrt g exist, deriving Gamma, Riemann, R,
    S1, S2 and the coefficients of S3 for a unit takes no polynomial gcd:
    every denominator stays a power of (1 + r^2), and only trial division
    cancels it."""
    S = catalog.load("sphere3").space
    M = MetricSpace([str(c) for c in S.coords], S.g.tolist(), box=S.box)
    R = M._chart
    assert isinstance(R, FieldRep) and R.g_inv and R.sqrt_det

    def forbidden(*args):
        raise AssertionError("polynomial gcd in chart arithmetic")
    monkeypatch.setattr(sympy.polys.rings, "heugcd", forbidden)
    for name in ("dup_zz_heu_gcd", "dmp_zz_heu_gcd"):
        monkeypatch.setattr(sympy.polys.euclidtools, name, forbidden)
    assert R.riemann and R.scalar_curvature
    cls = NonlinearityClass.named("critical", M, None, None)
    assert cls.representation(M, M.coords[0]) is R
    zero, x = R.of(sp.Integer(0)), R.of(M.coords[0])
    for slot in range(M.n + 2):
        parts = [zero] * (M.n + 2)
        parts[slot] = x
        mu, res1 = conformal_residual(R, parts[:M.n])
        res2, coeffs, split = _s2_s3(R, cls, parts[:M.n], mu, *parts[M.n:])
        assert all(len(p.exps) <= 1
                   for p in (mu, *res1[0], *res2, *coeffs, *split))
    assert [d.as_expr() for d, _ in M.table._base] == [
        1 + sum(c**2 for c in M.coords)]


def test_rational_metric_tensors_in_the_field():
    """g converts but sqrt g does not: the tensors and every identity of g
    alone run in the field, identities involving sqrt g on Exprs."""
    M = MetricSpace(["x", "y", "z"],
                    [["3", "1/x", "-1"], ["1/x", "2+x^2", "-1"],
                     ["-1", "-1", "2+y^2"]], box={"x": (1.0, 2.0)})
    assert isinstance(M._chart, FieldRep)
    assert M.representation() is M._chart
    assert M.representation(M.sqrt_det) is M.exprs
    lap_z = laplace_beltrami(M.exprs, M.coords[2])
    assert is_zero(lap_z + M.gamma_contracted[2], M.policy()) is Verdict.ZERO


# ---------------------------------------------------------------------------
# Lie derivative / conformal classification

def test_translation_is_killing_on_flat(flat):
    xi = VectorField(flat, [1, 0, 0])
    lg = lie_derivative_metric(flat.exprs, xi.components)
    assert sp.Matrix(lg) == sp.zeros(3, 3)


def test_euler_field_homothety(flat):
    x, y, z = flat.coords
    xi = VectorField(flat, [x, y, z])
    lg = sp.Matrix(lie_derivative_metric(flat.exprs, xi.components))
    assert normalize(lg - 2 * flat.g) == sp.zeros(3, 3)
    rep = conformal_check(flat, xi)
    assert rep.verdict is ConformalVerdict.HOMOTHETY
    assert rep.mu == 2
    assert normalize(divergence(flat.exprs, xi.components) - 3) == 0


def test_hyperbolic_dilation_is_killing(hyperbolic):
    x, y, z = hyperbolic.coords
    xi = VectorField(hyperbolic, [x, y, z])
    lg = sp.Matrix(lie_derivative_metric(hyperbolic.exprs, xi.components))
    assert all(is_zero(lg[i, j], hyperbolic.policy()) is Verdict.ZERO
               for i in range(3) for j in range(3))


def test_special_conformal_field_on_flat(flat):
    x, y, z = flat.coords
    xi = VectorField(flat, [x * z, y * z, (z**2 - x**2 - y**2) / 2])
    rep = conformal_check(flat, xi)
    assert rep.verdict is ConformalVerdict.CONFORMAL_KILLING
    assert normalize(rep.mu - 2 * z) == 0
    # oracle: L_xi g - mu g vanishes numerically at random points
    rng = random.Random(11)
    lg = sp.Matrix(lie_derivative_metric(flat.exprs, xi.components))
    for _ in range(10):
        pt = flat.sample_point(rng)
        for i in range(3):
            for j in range(3):
                res = eval_num(lg[i, j] - 2 * z * flat.g[i, j], pt)
                assert abs(res) < 1e-9


def test_sol_killing(sol):
    fix = catalog.load("sol")
    rep = conformal_check(sol, fix.killing["So1"])
    assert rep.verdict is ConformalVerdict.KILLING
    assert rep.mu == 0


def test_not_conformal(flat):
    x, y, _ = flat.coords
    rep = conformal_check(flat, VectorField(flat, [x**2, y, 0]))
    assert rep.verdict is ConformalVerdict.NOT_CONFORMAL


def test_sol_translation_divergence_free(sol):
    assert normalize(divergence(
        sol.exprs, VectorField(sol, [0, 1, 0]).components)) == 0


# ---------------------------------------------------------------------------
# brackets

def test_bracket_translation_rotation(flat):
    x, y, _ = flat.coords
    xi = VectorField(flat, [1, 0, 0])
    eta = VectorField(flat, [y, -x, 0])
    br = lie_bracket(xi, eta)
    assert [normalize(c) for c in br.components] == [0, -1, 0]


def test_bracket_antisymmetry(flat):
    x, y, z = flat.coords
    xi = VectorField(flat, [x * y, z, x + y])
    br = lie_bracket(xi, xi)
    assert all(normalize(c) == 0 for c in br.components)


def test_heisenberg_left_invariant_bracket():
    fix = catalog.load("heisenberg")
    br = lie_bracket(fix.auxiliary_fields["Xleft"], fix.auxiliary_fields["Yleft"])
    assert [normalize(c) for c in br.components] == [0, 0, -4]


# ---------------------------------------------------------------------------
# structural identities (cheap charts; full sweep in acceptance)

@pytest.mark.parametrize("name", ["euclidean", "sol", "h2xr"])
def test_metric_inverse_and_gamma_symmetry(name):
    M = catalog.load(name).space
    pol = M.policy()
    prod = M.g * M.g_inv
    for i in range(M.n):
        for j in range(M.n):
            target = 1 if i == j else 0
            assert is_zero(prod[i, j] - target, pol) is Verdict.ZERO
    gam = M.christoffel
    for i in range(M.n):
        for j in range(M.n):
            for k in range(M.n):
                assert normalize(gam[i][j][k] - gam[i][k][j]) == 0


@pytest.mark.parametrize("name", ["euclidean", "sol", "hyperbolic3"])
def test_divergence_formula(name):
    M = catalog.load(name).space
    pol = M.policy()
    for res in divergence_formula_residuals(M):
        assert is_zero(res, pol) is Verdict.ZERO


def test_conformal_identities_on_flat_special_conformal(flat):
    x, y, z = flat.coords
    xi = VectorField(flat, [x * z, y * z, (z**2 - x**2 - y**2) / 2])
    rep = conformal_identity_checks(flat, xi, 2 * z)
    assert rep.vector_identity_ok and rep.factor_identity_ok
    # Delta mu = 0 for mu = 2z, consistent with R = 0
    assert laplace_beltrami(flat.exprs, 2 * z) == 0


def test_conformal_identities_on_hyperbolic_killing(hyperbolic):
    fix = catalog.load("hyperbolic3")
    rep = conformal_identity_checks(hyperbolic, fix.killing["H4"],
                                    sp.Integer(0))
    assert rep.vector_identity_ok and rep.factor_identity_ok


# ---------------------------------------------------------------------------
# construction errors

def test_asymmetric_metric_rejected():
    with pytest.raises(GeometryError):
        MetricSpace(["x", "y"], [["1", "x"], ["0", "1"]])


def test_singular_metric_rejected():
    with pytest.raises(GeometryError):
        MetricSpace(["x", "y"], [["1", "0"], ["0", "0"]])


def test_jet_dependent_vectorfield_rejected(flat):
    with pytest.raises(GeometryError):
        VectorField(flat, [flat.table.jet1(0), 0, 0])
