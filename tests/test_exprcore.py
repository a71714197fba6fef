"""Expression kernel: grammar, differentiation, normalization, numeric
evaluation, the three-valued zero test and exact linear relations."""

import math

import pytest
import sympy as sp

from poissonsym.exprcore import (EvaluationError, ParseError, SymbolTable,
                                 UnknownSymbolError, Verdict, ZeroTestPolicy,
                                 _normalize_function_args, diff, eval_num,
                                 is_zero, linear_relations, normalize, parse,
                                 to_grammar)

from poissonsym.geom import FieldRep, MetricSpace


@pytest.fixture(scope="module")
def table():
    return SymbolTable(["x", "y", "z"])


# ---------------------------------------------------------------------------
# parsing

class TestParse:
    def test_exp_product(self, table):
        x = table.lookup("x")
        assert parse("exp(2*x)", table) == sp.exp(2 * x)

    def test_rational_power_of_sum(self, table):
        x, y, z = (table.lookup(n) for n in "xyz")
        expected = 1 / (1 + x**2 + y**2 + z**2) ** 2
        assert normalize(parse("1/(1+x^2+y^2+z^2)^2", table) - expected) == 0

    def test_double_caret_is_error_at_offset_2(self, table):
        with pytest.raises(ParseError) as err:
            parse("x^^2", table)
        assert err.value.offset == 2

    def test_unknown_identifier(self, table):
        with pytest.raises(UnknownSymbolError):
            parse("x + w", table)

    def test_malformed_number(self, table):
        with pytest.raises(ParseError):
            parse("1.", table)

    def test_power_right_associative(self, table):
        assert parse("2^3^2", table) == 512

    def test_unary_minus_binds_below_power(self, table):
        x = table.lookup("x")
        assert normalize(parse("-x^2", table) + x**2) == 0

    def test_precedence(self, table):
        x, y = table.lookup("x"), table.lookup("y")
        assert normalize(parse("2*x+3*y/2", table)
                         - (2 * x + sp.Rational(3, 2) * y)) == 0

    def test_jet_symbols(self, table):
        assert parse("u_xy", table) is parse("u_yx", table)
        assert parse("u_x * u", table) == table.jet1(0) * table.u

    def test_functions(self, table):
        z = table.lookup("z")
        assert parse("ln(z)", table) == sp.log(z)
        assert parse("sqrt(z)", table) == sp.sqrt(z)


# ---------------------------------------------------------------------------
# differentiation

class TestDiff:
    def test_chain_rule_exp(self, table):
        x = table.lookup("x")
        assert normalize(diff(sp.exp(2 * x), x) - 2 * sp.exp(2 * x)) == 0

    def test_jets_independent(self, table):
        u1, u2 = table.jet1(0), table.jet1(1)
        assert diff(u1 * u2, u1) == u2

    def test_power_rule(self, table):
        z = table.lookup("z")
        assert normalize(diff(1 / z**2, z) + 2 / z**3) == 0

    def test_linearity(self, table):
        x, y = table.lookup("x"), table.lookup("y")
        e1, e2 = x**3 * y, sp.exp(x) / (1 + y**2)
        lhs = diff(2 * e1 + 3 * e2, x)
        rhs = 2 * diff(e1, x) + 3 * diff(e2, x)
        assert normalize(lhs - rhs) == 0


# ---------------------------------------------------------------------------
# normalization

class TestNormalize:
    def test_collects_like_terms(self, table):
        x = table.lookup("x")
        assert normalize(x + x) == 2 * x

    def test_cancels_rational(self, table):
        z = table.lookup("z")
        assert normalize(z**2 * (1 / z**2)) == 1

    def test_merges_exponentials(self, table):
        x = table.lookup("x")
        assert normalize(sp.exp(2 * x) * sp.exp(-2 * x)) == 1

    def test_idempotent_on_generated_expressions(self, normal_forms):
        normal, renormal = normal_forms
        for n, m in zip(normal, renormal):
            assert m == n

    def test_powsimp_is_skipped_only_where_it_cannot_act(
            self, table, property_expressions, normal_forms):
        """The normal form with powsimp always applied is the reference."""
        x, a, b = table.lookup("x"), table.lookup("y"), table.lookup("z")
        _, exprs = property_expressions
        extra = [x**a * x**b, sp.exp(a) * sp.exp(b)]
        for e, n in zip(exprs + extra,
                        normal_forms[0] + [normalize(e) for e in extra]):
            reference = sp.cancel(sp.powsimp(_normalize_function_args(e),
                                             deep=True, combine="exp"))
            assert n == reference


class TestField:
    def test_rational_expressions_convert(self, table):
        x, z = table.lookup("x"), table.lookup("z")
        p = table.to_field(parse("(x^2 + u_x)/(1 + z^2)^3 - F_val", table))
        assert p.numer.ring is table.ring and p.c == 1
        assert [table._base[j][0].as_expr() for j in range(len(p.exps))] \
            == [1 + z**2] and p.exps == (3,)
        assert p.numer.as_expr() == sp.expand(
            x**2 + table.jet1(0) - table.F * (1 + z**2)**3)
        assert table.field_diff(p, x) == table.to_field(
            2 * x / (1 + z**2)**3)

    def test_outside_the_field_is_none(self, table):
        for text in ("exp(x)", "sin(y)", "sqrt(1 + x^2)", "x^(1/3)", "ln(z)"):
            assert table.to_field(parse(text, table)) is None
        assert table.to_field(sp.Symbol("k") * table.lookup("x")) is None

    def test_exact_on_generated_expressions(self, property_expressions,
                                            normal_forms):
        """Each generated expression the ring takes prints back to its own
        normal form, and its ring derivative in each coordinate and in u is
        sympy's derivative of the expression."""
        table, exprs = property_expressions
        R = FieldRep(MetricSpace(["x", "y", "z"], sp.eye(3).tolist()))
        converted = [(e, table.to_field(e), n)
                     for e, n in zip(exprs, normal_forms[0])]
        converted = [(e, p, n) for e, p, n in converted if p is not None]
        assert len(converted) >= 300
        for e, p, n in converted:
            assert R.expr(p) == n
            for s in (*table.coords, table.u):
                assert table.field_diff(p, s) == table.to_field(sp.diff(e, s))

    def test_canonical_on_generated_expressions(self, property_expressions,
                                                normal_forms):
        """An expression and its normal form convert to one fraction, equal
        and of equal hash, so == and the representation's memos are
        structural."""
        table, exprs = property_expressions
        for e, n in zip(exprs, normal_forms[0]):
            p = table.to_field(e)
            if p is not None:
                q = table.to_field(n)
                assert p == q and hash(p) == hash(q)

    def test_cancelled_denominator_leaves_no_exponent(self):
        table = SymbolTable(["x", "y", "z"])
        x, y, z = table.coords
        d = table.to_field(1 + x**2 + y**2 + z**2)
        one = d**2 / d**3 * d
        assert one == table.to_field(sp.Integer(1)) and one.exps == ()
        q = sp.Add(1, x**2, y**2, z**2, evaluate=False)
        e = sp.Mul(q**2, sp.Pow(q**3, -1, evaluate=False), q, evaluate=False)
        assert table.to_field(e).exps == ()

    def test_division_extends_the_factor_base_once(self):
        """Dividing by a jet-free fraction factors its numerator; a new
        irreducible factor joins the base once.  The dense rational metric
        brings x and the factors of x^2 det g."""
        M = MetricSpace(["x", "y", "z"], [
            ["3", "1/x", "-1"], ["1/x", "2+x^2", "-1"],
            ["-1", "-1", "2+y^2"]], box={"x": (1.0, 2.0)})
        T, R = M.table, M._chart
        base = lambda: [d for d, _ in T._base]   # noqa: E731
        assert [d.as_expr() for d in base()] == [M.coords[0]]
        gi = R.g_inv
        grown = base()
        assert len(grown) > 1 and len(set(grown)) == len(grown)
        assert R.det_g ** -1 * R.det_g == T.constant(1) and base() == grown
        n = M.n
        assert [[sum(R.g[i][k] * gi[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)] \
            == [[T.constant(int(i == j)) for j in range(n)] for i in range(n)]
        # g^00's numerator is x^2 times a new irreducible factor
        ux = T.to_field(T.jet1(0))
        q = ux / gi[0][0]
        assert len(base()) == len(grown) + 1 and base()[:-1] == grown
        assert q * gi[0][0] == ux and ux / gi[0][0] == q
        assert len(base()) == len(grown) + 1
        with pytest.raises(ValueError):
            gi[0][0] / ux

    def test_jet_in_a_denominator_is_none(self, table):
        """Jets and F_val, f_val, fprime_val are ring generators, so they
        may not divide; coordinates and u may."""
        for text in ("1/u_x", "x/(1 + u_xy^2)", "u_z/F_val"):
            assert table.to_field(parse(text, table)) is None
        assert table.to_field(parse("u_x/(u^3*(1 + x^2))", table)) is not None


# ---------------------------------------------------------------------------
# numeric evaluation

class TestEvalNum:
    def test_rational(self, table):
        z = table.lookup("z")
        assert eval_num(1 / z**2, {z: 2.0}) == pytest.approx(0.25)

    def test_exp_at_zero(self, table):
        x = table.lookup("x")
        assert eval_num(sp.exp(2 * x), {x: 0.0}) == pytest.approx(1.0)

    def test_log_negative_is_error(self, table):
        z = table.lookup("z")
        with pytest.raises(EvaluationError):
            eval_num(sp.log(z), {z: -1.0})

    def test_unbound_symbol_is_error(self, table):
        with pytest.raises(EvaluationError):
            eval_num(table.lookup("x") + table.lookup("y"),
                     {table.lookup("x"): 1.0})

    def test_division_by_zero_is_error(self, table):
        z = table.lookup("z")
        with pytest.raises(EvaluationError):
            eval_num(1 / z, {z: 0.0})


# ---------------------------------------------------------------------------
# zero test

class TestIsZero:
    def test_binomial_identity(self, table):
        x, y = table.lookup("x"), table.lookup("y")
        e = (x + y) ** 2 - x**2 - 2 * x * y - y**2
        assert is_zero(e) is Verdict.ZERO

    def test_jet_commutativity(self, table):
        u1, u2 = table.jet1(0), table.jet1(1)
        assert is_zero(u1 * u2 - u2 * u1) is Verdict.ZERO

    def test_x_minus_y_nonzero(self, table):
        assert is_zero(table.lookup("x") - table.lookup("y")) is Verdict.NONZERO

    def test_transcendental_identity(self, table):
        x = table.lookup("x")
        e = sp.sinh(x) ** 2 - sp.cosh(x) ** 2 + 1
        assert is_zero(e) is not Verdict.NONZERO

    def test_small_but_nonzero_constant_factor(self, table):
        x = table.lookup("x")
        assert is_zero(sp.Rational(1, 100) * x) is Verdict.NONZERO

    def test_box_respected(self, table):
        z = table.lookup("z")
        pol = ZeroTestPolicy(box={z: (0.5, 2.0)})
        assert is_zero(sp.log(z) - sp.log(z), pol) is Verdict.ZERO


# ---------------------------------------------------------------------------
# exact linear relations

class TestLinearRelations:
    @pytest.mark.parametrize("texts,relation", [
        # exp(x) and exp(x/2) are powers of one generator
        (("(exp(x/2)+1)^2", "exp(x)", "exp(x/2)", "1"), [1, -1, -2, -1]),
        (("1", "sin(x)^2", "cos(x)^2"), [1, -1, -1]),
        (("tan(2*x)", "2*tan(x)/(1-tan(x)^2)"), [1, -1]),
        (("(x+1)/sqrt(x)", "sqrt(x)", "1/sqrt(x)"), [1, -1, -1]),
        (("ln(x*y)", "ln(x)", "ln(y)"), [1, -1, -1]),
    ])
    def test_finds_relation(self, table, texts, relation):
        columns = [(parse(t, table),) for t in texts]
        assert linear_relations(columns) == [relation]

    def test_independent_functions(self, table):
        columns = [(parse(t, table),) for t in ("sin(x)", "cos(x)", "1")]
        assert linear_relations(columns) == []

    def test_rows_must_all_vanish(self, table):
        x, y = table.lookup("x"), table.lookup("y")
        columns = [(x, y), (2 * x, 2 * y), (x, -y)]
        assert linear_relations(columns) == [[1, sp.Rational(-1, 2), 0]]


# ---------------------------------------------------------------------------
# printing round-trip

class TestToGrammar:
    def test_round_trip_examples(self, table):
        for text in ("exp(2*x)", "1/(1+x^2+y^2+z^2)^2", "u_x*u_y - ln(z)",
                     "-x^2 + 3/4*y"):
            e = parse(text, table)
            assert normalize(parse(to_grammar(e), table) - e) == 0

    def test_round_trip_generated(self, property_expressions, normal_forms):
        table, _ = property_expressions
        for n in normal_forms[0][:200]:
            assert normalize(parse(to_grammar(n), table) - n) == 0


# ---------------------------------------------------------------------------
# derivative / finite-difference agreement

def test_diff_matches_finite_difference(property_expressions,
                                       finite_differences):
    _, exprs = property_expressions
    for e, outcome in zip(exprs, finite_differences):
        if outcome is not None:
            s, bindings, agrees = outcome
            assert agrees, \
                f"finite difference mismatch for {e} d/d{s} at {bindings}"
    # nearly every generated expression must admit at least one good point
    checked = sum(1 for o in finite_differences if o is not None)
    assert checked >= int(0.95 * len(exprs))
