"""Variational structure: Euler operator, symmetry action on the action
density, the four-way verdict, and conserved-current construction plus
symbolic/numeric verification."""

import random

import pytest
import sympy as sp

from poissonsym import catalog, noether
from poissonsym.detsys import (NonlinearityClass, SymmetryGenerator,
                               poisson_equation)
from poissonsym.exprcore import SymbolTable, Verdict, is_zero, normalize
from poissonsym.geom import InternalConsistencyError, MetricSpace, VectorField
from poissonsym.noether import (SIGMA, Lagrangian, NoetherError, NoetherKind,
                                build_current, euler_lagrange,
                                noether_classify, prolong_apply,
                                total_divergence,
                                verify_current_numeric,
                                verify_current_symbolic)


@pytest.fixture(scope="module")
def flat():
    return catalog.load("euclidean")


def lagrangian(fix, cls_name, **kw):
    M = fix.space
    u = M.table.u
    cls = {
        "arbitrary": lambda: NonlinearityClass.arbitrary(u),
        "zero": lambda: NonlinearityClass.zero(u),
        "linear": lambda: NonlinearityClass.linear(u),
        "exponential": lambda: NonlinearityClass.exponential(u),
        "critical": lambda: NonlinearityClass.power(u, 5, 3),
        "power": lambda: NonlinearityClass.power(u, kw.get("p", 3), M.n),
    }[cls_name]()
    return Lagrangian(M, cls)


def dilation_generator(fix, a, b):
    M = fix.space
    return SymmetryGenerator(VectorField(M, list(M.coords)),
                             sp.sympify(a), sp.sympify(b))


# ---------------------------------------------------------------------------
# total derivatives and the Euler operator

def test_total_derivative_chain(flat):
    M = flat.space
    T = M.table
    x = M.coords[0]
    assert normalize(M.exprs.total_derivative(T.u, 0) - T.jet1(0)) == 0
    assert normalize(M.exprs.total_derivative(T.jet1(0), 0) - T.jet2(0, 0)) == 0
    assert normalize(M.exprs.total_derivative(x * T.u, 0)
                     - (T.u + x * T.jet1(0))) == 0


def test_arbitrary_nonlinearity_is_jet_symbols(flat):
    """F_val, f_val and fprime_val follow the chain rule F -> f -> f'."""
    M = flat.space
    T = M.table
    F, f, fprime = (T.lookup(s) for s in ("F_val", "f_val", "fprime_val"))
    assert M.exprs.total_derivative(F, 0) == f * T.jet1(0)
    assert normalize(M.exprs.total_derivative(T.u * f, 1)
                     - T.jet1(1) * (f + T.u * fprime)) == 0
    cls = NonlinearityClass.arbitrary(T.u)
    assert (cls.F, cls.f, cls.fprime()) == (F, f, fprime)
    # the same chain rule on the rational function field
    K = T.to_field
    assert T.field_total_derivative(K(F), 0) == K(f * T.jet1(0))
    assert T.field_total_derivative(K(T.u * f), 1) \
        == K(T.jet1(1) * (f + T.u * fprime))


def test_total_divergence_linearity(flat):
    M = flat.space
    T = M.table
    comps = [T.u, sp.Integer(0), sp.Integer(0)]
    assert normalize(total_divergence(M.exprs, comps) - T.jet1(0)) == 0


def test_euler_lagrange_flat_free_field(flat):
    lag = lagrangian(flat, "zero")
    T = flat.space.table
    expected = -(T.jet2(0, 0) + T.jet2(1, 1) + T.jet2(2, 2))
    assert normalize(euler_lagrange(lag) - expected) == 0


def test_euler_lagrange_is_minus_density_weighted_equation(flat):
    """E(L) + sqrt(g) H = 0 for the linear case on a curved chart too."""
    fix = catalog.load("hyperbolic3")
    M = fix.space
    lag = Lagrangian(M, NonlinearityClass.linear(M.table.u))
    from poissonsym.detsys import poisson_equation
    res = euler_lagrange(lag) + M.sqrt_det * poisson_equation(M, lag.nonlinearity)
    assert is_zero(res, M.policy()) is Verdict.ZERO


def test_wrong_sqrt_g_fails_every_sqrt_g_identity(monkeypatch):
    """sqrt g enters only through L and the representation picked for it:
    sqrt g times z on sphere3 breaks E(L) + sqrt(g) H = 0 and the agreement
    of the two prolongation routes."""
    fix = catalog.load("sphere3")
    M = fix.space
    R = M.representation(M.sqrt_det)
    monkeypatch.setattr(R, "sqrt_det", R.sqrt_det * R.of(M.coords[2]))
    lag = Lagrangian(M, NonlinearityClass.arbitrary(M.table.u))
    with pytest.raises(InternalConsistencyError,
                       match=r"E\(L\) \+ sqrt\(g\) H does not vanish"):
        euler_lagrange(lag)
    with pytest.raises(InternalConsistencyError,
                       match="prolongation routes disagree"):
        noether_classify(lag, fix.generator("S1"))


# ---------------------------------------------------------------------------
# prolongation action

def test_prolong_killing_annihilates_action_density(flat):
    lag = lagrangian(flat, "arbitrary")
    M = flat.space
    gen = SymmetryGenerator(VectorField(M, [1, 0, 0]),
                            sp.Integer(0), sp.Integer(0))
    res = prolong_apply(lag, gen)
    assert is_zero(res, M.policy()) is Verdict.ZERO


def test_prolong_exponential_dilation_residual_is_density(flat):
    """The exponential-case dilation scales the action density by itself:
    the residual equals L exactly (n = 3, mu = 2)."""
    lag = lagrangian(flat, "exponential")
    gen = flat.generator("R13")
    res = prolong_apply(lag, gen)
    assert is_zero(res - lag.L, flat.space.policy()) is Verdict.ZERO


def test_prolong_critical_dilation_vanishes(flat):
    lag = lagrangian(flat, "critical")
    gen = dilation_generator(flat, sp.Rational(-1, 2), 0)
    res = prolong_apply(lag, gen)
    assert is_zero(res, flat.space.policy()) is Verdict.ZERO


def test_prolong_route_agreement_random_generators(flat):
    """The internal cross-check between the two prolongation routes runs on
    every call; exercise it on randomly assembled generators."""
    M = flat.space
    lag = lagrangian(flat, "linear")
    rng = random.Random(99)
    for _ in range(10):
        xi = [sum(sp.Rational(rng.randint(-2, 2)) * m
                  for m in (1, M.coords[0], M.coords[1], M.coords[2]))
              for _ in range(3)]
        gen = SymmetryGenerator(VectorField(M, xi),
                                sp.Rational(rng.randint(-2, 2)),
                                sp.Rational(rng.randint(-2, 2)) * M.coords[0])
        prolong_apply(lag, gen)   # must not raise the consistency error


# ---------------------------------------------------------------------------
# verdicts

def test_isometry_is_variational(flat):
    lag = lagrangian(flat, "arbitrary")
    M = flat.space
    gen = SymmetryGenerator(VectorField(M, [0, 0, 1]),
                            sp.Integer(0), sp.Integer(0))
    assert noether_classify(lag, gen).kind is NoetherKind.VARIATIONAL


def test_special_conformal_is_divergence_symmetry(flat):
    lag = lagrangian(flat, "critical")
    gen = flat.generator("R8")
    v = noether_classify(lag, gen)
    assert v.kind is NoetherKind.DIVERGENCE
    u = flat.space.table.u
    expected = [sp.Integer(0), sp.Integer(0), -u**2 / 4]
    for got, want in zip(v.potential, expected):
        assert normalize(got - want) == 0


def test_vertical_scaling_is_scaled_non_noether(flat):
    lag = lagrangian(flat, "linear")
    M = flat.space
    gen = SymmetryGenerator(VectorField(M, [0, 0, 0]),
                            sp.Integer(1), sp.Integer(0))
    v = noether_classify(lag, gen)
    assert v.kind is NoetherKind.SCALED_NON_NOETHER
    assert normalize(v.c - 1) == 0


def test_exponential_dilation_is_not_noether(flat):
    lag = lagrangian(flat, "exponential")
    v = noether_classify(lag, flat.generator("R13"))
    assert v.kind is NoetherKind.NOT_NOETHER
    assert is_zero(v.residual - lag.L, flat.space.policy()) is Verdict.ZERO


def test_dilation_family_verdict_depends_on_exponent(flat):
    """Only the critical exponent p = 5 makes the dilation variational."""
    M = flat.space
    u = M.table.u
    for p in (-1, 2, 3, 4, 5, 6):
        cls = NonlinearityClass.power(u, p, 3)
        lag = Lagrangian(M, cls)
        gen = dilation_generator(flat, sp.Rational(2, 1 - p), 0)
        kind = noether_classify(lag, gen).kind
        if p == 5:
            assert kind is NoetherKind.VARIATIONAL
        else:
            assert kind is NoetherKind.NOT_NOETHER


def test_constant_case_with_u_shift_rejected(flat):
    """f = k with a pure shift b d/du: the residual -sqrt(g) b k is not a
    divergence or a multiple of L, so no scaled verdict is available."""
    M = flat.space
    cls = NonlinearityClass.constant(M.table.u)
    lag = Lagrangian(M, cls)
    gen = SymmetryGenerator(VectorField(M, [0, 0, 0]),
                            sp.Integer(0), sp.Integer(1))
    assert noether_classify(lag, gen).kind is NoetherKind.NOT_NOETHER


def test_sigma_closes_flat_translation_identity():
    """D_k A^k = SIGMA sqrt(g) Q H for the flat translation current, and
    the opposite sign fails."""
    M = MetricSpace(["x", "y", "z"], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    T = M.table
    cls = NonlinearityClass.arbitrary(T.u)
    X = SymmetryGenerator(VectorField(M, [1, 0, 0]),
                          sp.Integer(0), sp.Integer(0))
    cur = build_current(Lagrangian(M, cls), X)
    div = total_divergence(M.exprs, cur.components)
    Q = X.eta() - sum(X.xi[i] * T.jet1(i) for i in range(M.n))
    H = poisson_equation(M, cls)

    def verdict(sigma):
        return is_zero(div - sigma * M.sqrt_det * Q * H, M.policy())

    assert verdict(SIGMA) is Verdict.ZERO
    assert verdict(-SIGMA) is Verdict.NONZERO


# ---------------------------------------------------------------------------
# currents

def test_translation_current_components(flat):
    lag = lagrangian(flat, "arbitrary")
    M = flat.space
    T = M.table
    gen = SymmetryGenerator(VectorField(M, [1, 0, 0]),
                            sp.Integer(0), sp.Integer(0))
    cur = build_current(lag, gen)
    ux, uy, uz = T.jet1(0), T.jet1(1), T.jet1(2)
    expected = [(uy**2 + uz**2 - ux**2) / 2 - lag.nonlinearity.F,
                -ux * uy, -ux * uz]
    for got, want in zip(cur.components, expected):
        assert is_zero(got - want, M.policy()) is Verdict.ZERO


def test_current_verification_flat_translation(flat):
    lag = lagrangian(flat, "linear")
    M = flat.space
    gen = SymmetryGenerator(VectorField(M, [0, 1, 0]),
                            sp.Integer(0), sp.Integer(0))
    cur = build_current(lag, gen)
    assert verify_current_symbolic(cur)
    res = verify_current_numeric(cur, samples=100, seed=2024)
    assert res.passed
    assert res.max_divergence < 1e-7 * (1.0 + res.scale)


def test_current_verification_sol_isometry():
    fix = catalog.load("sol")
    M = fix.space
    lag = Lagrangian(M, NonlinearityClass.arbitrary(M.table.u))
    cur = build_current(lag, fix.generator("So2"))
    assert verify_current_symbolic(cur)
    assert verify_current_numeric(cur).passed


def test_current_verification_critical_conformal(flat):
    lag = lagrangian(flat, "critical")
    cur = build_current(lag, flat.generator("R8"))
    assert verify_current_symbolic(cur)
    assert verify_current_numeric(cur).passed


def test_mutated_current_fails_symbolic_check(flat):
    """A wrong current is rejected in the field (flat, sphere3 S1) and on
    the sampled route (sol So2)."""
    sphere3, sol = catalog.load("sphere3"), catalog.load("sol")
    M = flat.space
    for lag, gen in ((lagrangian(flat, "linear"),
                      SymmetryGenerator(VectorField(M, [1, 0, 0]),
                                        sp.Integer(0), sp.Integer(0))),
                     (lagrangian(sphere3, "critical"),
                      sphere3.generator("S1")),
                     (lagrangian(sol, "arbitrary"), sol.generator("So2"))):
        cur = build_current(lag, gen)
        cur.components[1] = -cur.components[1]
        assert not verify_current_symbolic(cur)


def test_mutated_current_fails_numeric_check(flat):
    """The complex-step check rejects the mutated currents of the symbolic
    test above: flat, sphere3 S1 and sol So2."""
    sphere3, sol = catalog.load("sphere3"), catalog.load("sol")
    M = flat.space
    for lag, gen in ((lagrangian(flat, "linear"),
                      SymmetryGenerator(VectorField(M, [1, 0, 0]),
                                        sp.Integer(0), sp.Integer(0))),
                     (lagrangian(sphere3, "critical"),
                      sphere3.generator("S1")),
                     (lagrangian(sol, "arbitrary"), sol.generator("So2"))):
        cur = build_current(lag, gen)
        cur.components[1] = -cur.components[1]
        assert not verify_current_numeric(cur).passed


@pytest.mark.parametrize("geometry, field", [("euclidean", "R8"),
                                             ("sphere3", "S1")])
def test_field_current_checks_convert_no_component(monkeypatch, geometry,
                                                    field):
    """build_current records each field component as its Expr's element,
    so neither the symbolic check nor the reference reconciliation converts
    a component of a current to the field again."""
    fix = catalog.load(geometry)
    M = fix.space
    lag = Lagrangian(M, NonlinearityClass.named("critical", M, None, None))
    currents = [build_current(lag, fix.generator(field))]
    converted = []
    to_field = SymbolTable.to_field
    monkeypatch.setattr(SymbolTable, "to_field",
                        lambda self, e: converted.append(e) or to_field(self, e))
    assert verify_current_symbolic(currents[0])
    if geometry == "sphere3":
        monkeypatch.setattr(catalog, "build_current", lambda *args: (
            currents.append(build_current(*args)) or currents[-1]))
        assert all(observed == ref.matches for ref, observed, _ in
                   catalog.reconcile_reference_tables(fix))
        assert len(currents) > 1
    components = {e for cur in currents for e in cur.components}
    assert not components & set(converted)


def test_branch_cut_points_are_not_samples(flat, monkeypatch):
    """F = ln u (power p = -1) puts ln u in the current, which is not real
    for u < 0: such points are skipped, and the check still takes the
    requested number of samples from the real ones."""
    lag = lagrangian(flat, "power", p=-1)
    M = flat.space
    cur = build_current(lag, SymmetryGenerator(VectorField(M, [1, 0, 0]),
                                               sp.Integer(0), sp.Integer(0)))
    assert cur.components[0].has(sp.log)
    logs = []                           # ln u at the unperturbed points
    log = noether._CMATH["log"]
    monkeypatch.setitem(noether._CMATH, "log",
                        lambda z: logs.append(z) or log(z))
    res = verify_current_numeric(cur, samples=100, seed=2024)
    assert res.passed
    assert res.samples == len(res.points) == 100
    real = [z for z in logs if not isinstance(z, complex)]
    assert any(z < 0 for z in real)
    assert sum(1 for z in real if z > 0) == res.samples


@pytest.mark.parametrize("geometry, cls_name, field", [
    ("euclidean", "critical", "R8"),
    ("sphere3", "arbitrary", "S1"),
])
def test_rational_noether_identities_compile_nothing(monkeypatch, geometry,
                                                     cls_name, field):
    """In the rational function field the Noether tests and the symbolic
    current check are exact: nothing is sampled, so nothing is compiled.
    L, E(L) and the Noether residual are derived there too, so no Expr is
    differentiated."""
    fix = catalog.load(geometry)
    M = fix.space
    cls = NonlinearityClass.named(cls_name, M, None, None)
    gen = fix.generator(field)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call
    monkeypatch.setattr(sp, "lambdify", forbidden("lambdify"))
    with monkeypatch.context() as m:
        m.setattr(sp, "diff", forbidden("sympy.diff"))
        lag = Lagrangian(M, cls)
        verdict = noether_classify(lag, gen)
        euler_lagrange(lag)
    assert verdict.kind in (NoetherKind.VARIATIONAL, NoetherKind.DIVERGENCE)
    assert verify_current_symbolic(build_current(lag, gen, verdict))


def test_off_shell_divergence_is_detected(flat):
    """Off the solution manifold the divergence must be visibly nonzero at
    nearly every sample (the check has teeth)."""
    lag = lagrangian(flat, "linear")
    M = flat.space
    gen = SymmetryGenerator(VectorField(M, [1, 0, 0]),
                            sp.Integer(0), sp.Integer(0))
    cur = build_current(lag, gen)
    res = verify_current_numeric(cur, samples=100, seed=2024, on_shell=False)
    big = sum(1 for d in res.points if d > 1e-3)
    assert big >= 95


def test_no_current_for_non_noether_symmetry(flat):
    lag = lagrangian(flat, "exponential")
    with pytest.raises(NoetherError):
        build_current(lag, flat.generator("R13"))
