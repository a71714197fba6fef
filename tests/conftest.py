"""Shared fixtures: the (expensive) per-geometry suite reports, computed once
per session, a seeded random expression generator for property tests, and
the normal forms and finite-difference outcomes of its expressions, each
computed once and asserted on by every property test that needs it."""

import random

import pytest
import sympy as sp

from poissonsym import catalog
from poissonsym.exprcore import (EvaluationError, SymbolTable, diff,
                                 eval_num, normalize)

PROPERTY_SEED = 20240823
N_PROPERTY_EXPRESSIONS = 1000


@pytest.fixture(scope="session")
def suite_reports():
    """Run the full fixture suite once per geometry and share the reports."""
    return {name: catalog.run_fixture_suite(catalog.load(name))
            for name in catalog.GEOMETRY_NAMES}


# ---------------------------------------------------------------------------
# random expression generation (seeded, reproducible)

_FUNCS = (sp.exp, sp.sin, sp.cos, sp.tanh, sp.sinh, sp.cosh)


def random_expression(rng: random.Random, table: SymbolTable, depth: int):
    """A random expression tree of bounded depth over the table's symbols.

    Constructions mirror the grammar node kinds: numbers, symbols, sums,
    products, integer powers, quotients, and elementary function kernels.
    Arguments of transcendental kernels are kept shallow so sampling stays
    finite.
    """
    symbols = list(table.coords) + [table.u] + list(table.first_jets)
    if depth <= 0 or rng.random() < 0.4:
        kind = rng.random()
        if kind < 0.35:
            return sp.Integer(rng.randint(-4, 4))
        if kind < 0.5:
            return sp.Rational(rng.randint(-6, 6), rng.randint(1, 6))
        return rng.choice(symbols)
    kind = rng.random()
    if kind < 0.3:
        return (random_expression(rng, table, depth - 1)
                + random_expression(rng, table, depth - 1))
    if kind < 0.55:
        return (random_expression(rng, table, depth - 1)
                * random_expression(rng, table, depth - 1))
    if kind < 0.7:
        base = random_expression(rng, table, depth - 1)
        return base ** rng.randint(2, 3)
    if kind < 0.85:
        num = random_expression(rng, table, depth - 1)
        # denominators bounded away from zero on the sample box
        den = rng.choice(symbols) ** 2 + rng.randint(1, 3)
        return num / den
    fn = rng.choice(_FUNCS)
    arg = random_expression(rng, table, min(depth - 1, 2))
    if fn in (sp.exp, sp.sinh, sp.cosh):
        # keep exponential growth at sampling scale
        arg = arg / 4
    return fn(arg)


@pytest.fixture(scope="session")
def property_expressions():
    table = SymbolTable(["x", "y", "z"])
    rng = random.Random(PROPERTY_SEED)
    exprs = []
    while len(exprs) < N_PROPERTY_EXPRESSIONS:
        e = random_expression(rng, table, rng.randint(1, 8))
        # keep trees desk-sized so canonicalization stays fast
        if e.free_symbols and sp.count_ops(e) <= 40:
            exprs.append(e)
    return table, exprs


@pytest.fixture(scope="session")
def normal_forms(property_expressions):
    """(normalize(e) for each property expression, normalize of each of
    those), in the order of the expressions."""
    _, exprs = property_expressions
    normal = [normalize(e) for e in exprs]
    return normal, [normalize(n) for n in normal]


# ---------------------------------------------------------------------------
# derivative / finite-difference agreement

def try_eval(e, bindings):
    try:
        return eval_num(e, bindings)
    except EvaluationError:
        return None


def finite_difference_agrees(e, s, bindings, exact):
    """Central difference at shrinking steps; matches within 1e-6 relative."""
    base = bindings[s]
    for h in (1e-4, 1e-5, 1e-6):
        step = h * (1.0 + abs(base))
        up = try_eval(e, {**bindings, s: base + step})
        dn = try_eval(e, {**bindings, s: base - step})
        if up is None or dn is None:
            continue
        fd = (up - dn) / (2 * step)
        if abs(fd - exact) <= 1e-6 * (1.0 + abs(exact) + abs(fd)):
            return True
    return False


@pytest.fixture(scope="session")
def finite_differences(property_expressions):
    """For each property expression e, in order, (s, bindings, agrees): a
    seeded symbol s of e, the first of up to eight seeded points where e
    and de/ds evaluate with |de/ds| <= 1e6, and whether a central
    difference there matches de/ds; None when no point qualifies."""
    _, exprs = property_expressions
    rng = random.Random(PROPERTY_SEED + 1)
    outcomes = []
    for e in exprs:
        free = sorted(e.free_symbols, key=str)
        s = rng.choice(free)
        d = diff(e, s)
        outcome = None
        for _ in range(8):
            bindings = {sym: rng.uniform(0.3, 1.7) for sym in free}
            val = try_eval(e, bindings)
            exact = try_eval(d, bindings)
            if val is None or exact is None or abs(exact) > 1e6:
                continue
            outcome = (s, bindings,
                       finite_difference_agrees(e, s, bindings, exact))
            break
        outcomes.append(outcome)
    return outcomes
