"""Determining equations: the equation builder, symmetry verification,
nonlinearity-case routing, and the linear-ansatz solver."""

import pytest
import sympy as sp

from poissonsym import catalog, exprcore, geom
from poissonsym.detsys import (AnsatzBasis, DetSysError, NonlinearityClass,
                               NonlinearityTag, SymmetryGenerator, classify,
                               determining_residuals, poisson_equation)
from poissonsym.exprcore import Verdict, is_zero, normalize
from poissonsym.geom import MetricSpace, VectorField, conformal_factor


@pytest.fixture(scope="module")
def flat():
    return catalog.load("euclidean")


@pytest.fixture(scope="module")
def zero_xi(flat):
    return VectorField(flat.space, [0, 0, 0])


def dilation(fix):
    M = fix.space
    return VectorField(M, list(M.coords))


# ---------------------------------------------------------------------------
# equation builder

def test_poisson_equation_flat(flat):
    M = flat.space
    T = M.table
    cls = NonlinearityClass.linear(T.u)
    H = poisson_equation(M, cls)
    expected = T.jet2(0, 0) + T.jet2(1, 1) + T.jet2(2, 2) + T.u
    assert normalize(H - expected) == 0


def test_poisson_equation_hyperbolic():
    M = catalog.load("hyperbolic3").space
    T = M.table
    z = M.coords[2]
    cls = NonlinearityClass.exponential(T.u)
    H = poisson_equation(M, cls)
    expected = (z**2 * (T.jet2(0, 0) + T.jet2(1, 1) + T.jet2(2, 2))
                - z * T.jet1(2) + sp.exp(T.u))
    assert is_zero(H - expected, M.policy()) is Verdict.ZERO


def test_poisson_equation_sol():
    M = catalog.load("sol").space
    T = M.table
    x = M.coords[0]
    cls = NonlinearityClass.zero(T.u)
    H = poisson_equation(M, cls)
    expected = (T.jet2(0, 0) + sp.exp(-2 * x) * T.jet2(1, 1)
                + sp.exp(2 * x) * T.jet2(2, 2))
    assert is_zero(H - expected, M.policy()) is Verdict.ZERO


# ---------------------------------------------------------------------------
# nonlinearity-case routing

def test_power_routes_to_critical():
    u = sp.Symbol("u", real=True)
    assert NonlinearityClass.power(u, 5, 3).tag is NonlinearityTag.CRITICAL
    assert NonlinearityClass.power(u, 3, 3).tag is NonlinearityTag.POWER
    assert NonlinearityClass.power(u, 2, 6).tag is NonlinearityTag.P2N6
    assert NonlinearityClass.power(u, 2, 4).tag is NonlinearityTag.POWER


def test_power_rejects_degenerate_exponents():
    u = sp.Symbol("u", real=True)
    for p in (0, 1):
        with pytest.raises(DetSysError):
            NonlinearityClass.power(u, p, 3)


def test_constant_rejects_zero():
    u = sp.Symbol("u", real=True)
    with pytest.raises(DetSysError):
        NonlinearityClass.constant(u, 0)


def test_generator_rejects_jet_dependent_coefficients(flat):
    M = flat.space
    with pytest.raises(DetSysError):
        SymmetryGenerator(VectorField(M, [1, 0, 0]), M.table.u, sp.Integer(0))


def test_generator_eta(flat):
    M = flat.space
    gen = SymmetryGenerator(VectorField(M, [0, 0, 0]),
                            sp.Integer(2), M.coords[0])
    assert normalize(gen.eta() - (2 * M.table.u + M.coords[0])) == 0


# ---------------------------------------------------------------------------
# symmetry verification

def test_killing_field_solves_arbitrary_case(flat):
    M = flat.space
    cls = NonlinearityClass.arbitrary(M.table.u)
    gen = SymmetryGenerator(VectorField(M, [1, 0, 0]),
                            sp.Integer(0), sp.Integer(0))
    rep = determining_residuals(M, gen, cls)
    assert rep.verdict
    assert rep.mu == 0


def test_critical_dilation_is_symmetry(flat):
    M = flat.space
    cls = NonlinearityClass.power(M.table.u, 5, 3)
    gen = SymmetryGenerator(dilation(flat), sp.Rational(-1, 2), sp.Integer(0))
    rep = determining_residuals(M, gen, cls)
    assert rep.verdict
    assert normalize(rep.mu - 2) == 0


def test_exponential_dilation_is_symmetry(flat):
    M = flat.space
    cls = NonlinearityClass.exponential(M.table.u)
    gen = SymmetryGenerator(dilation(flat), sp.Integer(0), sp.Integer(-2))
    assert determining_residuals(M, gen, cls).verdict


def test_wrong_multiplier_is_not_symmetry(flat):
    M = flat.space
    cls = NonlinearityClass.power(M.table.u, 5, 3)
    gen = SymmetryGenerator(dilation(flat), sp.Integer(0), sp.Integer(0))
    rep = determining_residuals(M, gen, cls)
    assert not rep.verdict
    assert is_zero(rep.nonlinearity_residual, M.policy()) is not Verdict.ZERO


def test_constant_case_balance_requirement(flat):
    """f = k needs (mu - a) k + Delta b = 0; a pure dilation violates it."""
    M = flat.space
    cls = NonlinearityClass.constant(M.table.u)  # symbolic k != 0
    trans = SymmetryGenerator(VectorField(M, [0, 1, 0]),
                              sp.Integer(0), sp.Integer(0))
    assert determining_residuals(M, trans, cls).verdict
    dil = SymmetryGenerator(dilation(flat), sp.Integer(0), sp.Integer(0))
    assert not determining_residuals(M, dil, cls).verdict


def test_linear_case_vertical_scaling(flat, zero_xi):
    M = flat.space
    cls = NonlinearityClass.linear(M.table.u)
    gen = SymmetryGenerator(zero_xi, sp.Integer(1), sp.Integer(0))
    assert determining_residuals(M, gen, cls).verdict


def test_scaling_gradient_chain_on_special_conformal(flat):
    """For a verified critical-case symmetry, grad(a - mu) must equal
    ((n+2)/(n-2)) grad a componentwise."""
    gen = flat.generator("R8")
    M = flat.space
    cls = NonlinearityClass.power(M.table.u, 5, 3)
    assert determining_residuals(M, gen, cls).verdict
    lam = gen.a - conformal_factor(M, gen.xi)
    for x in M.coords:
        res = (sp.diff(lam, x)
               - sp.Rational(M.n + 2, M.n - 2) * sp.diff(gen.a, x))
        assert is_zero(res, M.policy()) is Verdict.ZERO


# ---------------------------------------------------------------------------
# linear-ansatz solver

def test_flat_arbitrary_case_recovers_isometries(flat):
    M = flat.space
    cls = NonlinearityClass.arbitrary(M.table.u)
    table = classify(M, cls, AnsatzBasis.polynomial(M, 2))
    assert table.dimension == 6
    assert not table.inconclusive
    for entry in table.entries:
        assert entry.label == "Isometry"
        assert not entry.violations


def test_sol_arbitrary_case_dimension():
    fix = catalog.load("sol")
    M = fix.space
    cls = NonlinearityClass.arbitrary(M.table.u)
    table = classify(M, cls, fix.basis)
    assert table.dimension == 3
    assert all(e.label == "Isometry" for e in table.entries)


def test_flat_power_and_exponential_dimensions_match(flat):
    """Both cases extend the 6 isometries by exactly the dilation."""
    M = flat.space
    basis = AnsatzBasis.polynomial(M, 2)
    dims = {}
    for name, cls in (("power3", NonlinearityClass.power(M.table.u, 3, 3)),
                      ("exp", NonlinearityClass.exponential(M.table.u))):
        table = classify(M, cls, basis)
        dims[name] = table.dimension
        labels = sorted(e.label for e in table.entries)
        assert labels.count("Homothety") == 1
        for entry in table.entries:
            assert not entry.violations
    assert dims["power3"] == dims["exp"] == 7


def test_solver_deterministic(flat):
    M = flat.space
    cls = NonlinearityClass.arbitrary(M.table.u)
    basis = AnsatzBasis.from_strings(M, ["1", "x", "y", "z"])
    t1 = classify(M, cls, basis)
    t2 = classify(M, cls, basis)
    xi1 = [[normalize(c) for c in e.generator.xi.components] for e in t1.entries]
    xi2 = [[normalize(c) for c in e.generator.xi.components] for e in t2.entries]
    assert xi1 == xi2


@pytest.mark.parametrize("geometry,name,p,dimension", [
    *(pytest.param(g, "critical", None, d, id=f"{g}-{d}") for g, d in (
        ("euclidean", 10), ("hyperbolic3", 6), ("sphere3", 6), ("s2xr", 4),
        ("h2xr", 4), ("sl2tilde", 4), ("heisenberg", 4))),
    # u^-3 lies in the coefficient field QQ(coords, u)
    pytest.param("sphere3", "power", -3, 6, id="sphere3-power-3-6"),
])
def test_rational_solver_runs_in_the_field(monkeypatch, geometry, name, p,
                                           dimension):
    """On a rational chart the columns are split as field elements and every
    residual, side condition and label is decided exactly: neither the Expr
    front end of linear_relations (sfield) nor the sampled zero test runs."""
    fix = catalog.load(geometry)
    M = fix.space
    cls = NonlinearityClass.named(name, M, p, None)

    def refuse(*args, **kwargs):
        raise AssertionError("Expr route taken")
    monkeypatch.setattr(exprcore, "sfield", refuse)
    monkeypatch.setattr(sp, "lambdify", refuse)
    table = classify(M, cls, fix.basis)
    assert table.dimension == dimension
    assert not table.inconclusive
    assert all(not e.violations for e in table.entries)


@pytest.mark.parametrize("geometry,dimension", [("sphere3", 6), ("s2xr", 4)])
def test_exponential_class_is_cut_in_the_field(monkeypatch, geometry,
                                               dimension):
    """e^u leaves S3 with its split: the solve, the re-check of every
    generator and the side conditions take no sampled zero test."""
    fix = catalog.load(geometry)
    M = fix.space

    def forbidden(*args, **kwargs):
        raise AssertionError("sampled zero test")
    for module in (exprcore, geom):
        monkeypatch.setattr(module, "is_zero", forbidden)
    table = classify(M, NonlinearityClass.exponential(M.table.u), fix.basis)
    assert table.dimension == dimension
    assert not table.inconclusive
    assert all(not e.violations for e in table.entries)


@pytest.mark.parametrize("name,split", [
    ("arbitrary", [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                   [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
    ("zero", [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
    ("linear", [[1, 0, 1, 1, 0], [0, 1, 0, 0, 1]]),
    ("exponential", [[1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 0],
                     [0, 0, 0, 0, 1]]),
    ("critical", [[0, 1, 0, 0, 0], [5, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                  [0, 0, 0, 0, 1]]),
    # symbolic k is independent of 1, so mu - a and Delta b vanish apart
    ("constant", [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
])
def test_s3_split_by_u_dependence(flat, name, split):
    """Rows w of the equations sum_k w_k c_k = 0 on S3's coefficients
    (a, b, mu - a, curv, Delta_g b) of (u f', f', f, u, 1)."""
    cls = NonlinearityClass.named(name, flat.space, None, None)
    assert cls.split == split


def test_empty_basis_rejected():
    with pytest.raises(DetSysError):
        AnsatzBasis([])


@pytest.mark.parametrize("texts", [
    ["1", "x", "y", "z", "x+y"],          # redundant
    ["1", "x", "y", "z/20011"],           # scaled past any float cut-off
])
def test_redundant_or_scaled_basis_gives_six_isometries(flat, texts):
    """The six isometries, and the dilation where the class admits it."""
    M = flat.space
    basis = AnsatzBasis.from_strings(M, texts)
    for name, dimension in (("arbitrary", 6), ("exponential", 7),
                            ("critical", 7)):
        table = classify(M, NonlinearityClass.named(name, M, None, None),
                         basis)
        assert table.dimension == dimension, name
        assert not table.inconclusive


def test_redundant_basis_keeps_first_independent_subset(flat):
    basis = AnsatzBasis.from_strings(flat.space, ["1", "x", "2", "x+1", "y"])
    assert [str(f) for f in basis.functions] == ["1", "x", "y"]


def test_rational_scaling_of_basis_changes_nothing(flat):
    M = flat.space
    plain = AnsatzBasis.polynomial(M, 2).functions
    scaled = [f / 3 if f == M.coords[2] else f for f in plain]
    for name, dimension in (("critical", 10), ("exponential", 7)):
        cls = NonlinearityClass.named(name, M, None, None)
        tables = [classify(M, cls, AnsatzBasis(fs)) for fs in (plain, scaled)]
        assert tables[0].dimension == tables[1].dimension == dimension
        labels = [sorted(e.label for e in t.entries) for t in tables]
        assert labels[0] == labels[1]


def test_exponential_rewrite_keeps_cosh_chart_isometries():
    """diag(1, cosh(x)^2, 1) has 4 isometries in this basis; they are found
    only when sinh, cosh and tanh are split as powers of exp(x), exp(y)."""
    M = MetricSpace(["x", "y", "z"],
                    [["1", "0", "0"], ["0", "cosh(x)^2", "0"],
                     ["0", "0", "1"]])
    basis = AnsatzBasis.from_strings(M, [
        "1", "y", "z", "sinh(y)", "cosh(y)", "tanh(x)*sinh(y)",
        "tanh(x)*cosh(y)"])
    table = classify(M, NonlinearityClass.arbitrary(M.table.u), basis)
    assert table.dimension == 4
    assert not table.inconclusive
    assert all(e.label == "Isometry" for e in table.entries)
