"""Symbolic expression kernel.

Thin, contract-enforcing layer over sympy: a fixed input grammar, exact
rational constants, a normal form for rational expressions with opaque
transcendental kernels, numeric evaluation that refuses to return NaN/Inf,
a sampling+canonicalization zero test, exact linear relations over QQ
between tuples of expressions, and a chart's jet fractions, jet
polynomials over powers of the chart's own irreducible denominators, with
their derivations.  Everything upstream
(tensor calculus, determining equations, Noether machinery) speaks this
dialect.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from typing import Mapping, Sequence

import sympy as sp
from sympy.core.sympify import CantSympify
from sympy.polys.fields import sfield
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyElement, PolyRing

Expr = sp.Expr

#: function identifiers accepted by the grammar
FUNCTIONS = {
    "exp": sp.exp,
    "ln": sp.log,
    "sin": sp.sin,
    "cos": sp.cos,
    "tan": sp.tan,
    "sinh": sp.sinh,
    "cosh": sp.cosh,
    "tanh": sp.tanh,
    "sqrt": sp.sqrt,
}


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax error with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownSymbolError(ExprError):
    pass


class EvaluationError(ExprError):
    pass


class SymbolTable:
    """Coordinates, the dependent variable u, jet symbols and the arbitrary
    nonlinearity.

    Jet symbols follow the manifest convention: u, u_x, u_xx, u_xy, ...
    built from the coordinate names; u_xy and u_yx are the same symbol.
    The arbitrary nonlinearity is three reserved jet-space symbols: F_val
    (F), f_val (f = F') and fprime_val (f').  A coordinate may not take any
    of these names, nor a grammar function name, and each must be one
    grammar identifier.

    The chart's rational jet expressions have an exact normal form as
    `JetFraction`s: numerators in `ring` over an integer times powers of
    the table's factor base, the irreducible denominators met so far.
    """

    F = sp.Symbol("F_val", real=True)
    f = sp.Symbol("f_val", real=True)
    fprime = sp.Symbol("fprime_val", real=True)
    #: d/du of the reserved symbols: F' = f and f' = fprime
    CHAIN = ((F, f), (f, fprime))

    def __init__(self, coords: Sequence[str]):
        for c in coords:
            try:
                tokens = _tokenize(c)
            except ParseError:
                tokens = []
            if [t[:2] for t in tokens] != [("IDENT", c), ("EOF", "")]:
                raise ExprError(f"coordinate name '{c}' is not an "
                                f"identifier of the expression grammar")
        self.coords = [sp.Symbol(c, real=True) for c in coords]
        self.u = sp.Symbol("u", real=True)

        n = len(coords)
        self.first_jets = [sp.Symbol(f"u_{c}", real=True) for c in coords]
        self.second_jets: dict[tuple[int, int], sp.Symbol] = {}
        for i in range(n):
            for j in range(i, n):
                self.second_jets[(i, j)] = sp.Symbol(
                    f"u_{coords[i]}{coords[j]}", real=True)

        # every name has one owner (u_xy and u_yx share theirs); the
        # grammar owns the function names
        named = [(c, s, ("coord", i))
                 for i, (c, s) in enumerate(zip(coords, self.coords))]
        named += [(s.name, s, s.name)
                  for s in (self.u, self.F, self.f, self.fprime)]
        named += [(s.name, s, ("jet", i)) for i, s in enumerate(self.first_jets)]
        named += [(f"u_{coords[a]}{coords[b]}", s, (i, j))
                  for (i, j), s in self.second_jets.items()
                  for a, b in ((i, j), (j, i))]
        owners = dict.fromkeys(FUNCTIONS, "function")
        for name, _, owner in named:
            if owners.setdefault(name, owner) != owner:
                raise ExprError(
                    f"coordinates {list(coords)} clash on the name '{name}'; "
                    f"a coordinate may not be u, a jet name, F_val, "
                    f"f_val, fprime_val or a function name")
        self._by_name = {name: s for name, s, _ in named}
        self._jet_space = {self.u, self.F, self.f, self.fprime,
                           *self.first_jets, *self.second_jets.values()}
        # the factor base as (element of ring, element of _base_ring), its
        # index, the factored jet-free numerators and the constants met
        self._base, self._base_index = [], {}
        self._factored, self._constants = {}, {}

    @classmethod
    def diff_u(cls, e: Expr, u: sp.Symbol) -> Expr:
        """d/du with the chain rule F_val -> f_val -> fprime_val; fprime_val
        has no derivative, as only (S3) holds it and nothing differentiates
        (S3).  The has_free test skips two costly zero derivatives."""
        d = sp.diff(e, u)
        if e.has_free(cls.F, cls.f):
            d += sum(c * sp.diff(e, s) for s, c in cls.CHAIN)
        return d

    def expression(self, value) -> Expr:
        """value in normal form, parsed first when it is grammar text."""
        return normalize(parse(value, self) if isinstance(value, str)
                         else value)

    def coordinate_only(self, e: Expr) -> bool:
        """Whether e is free of u, the jets and the reserved F_val, f_val,
        fprime_val, i.e. a function of the coordinates."""
        return not (sp.sympify(e).free_symbols & self._jet_space)

    # -- jet fractions over the chart's factor base --------------------------

    @cached_property
    def ring(self) -> PolyRing:
        """ZZ[coords, u, jets, F_val, f_val, fprime_val]: the numerators"""
        return PolyRing(self.coords + self.all_jets()
                        + [self.F, self.f, self.fprime], sp.ZZ)

    #: ZZ[coords, u], in which the factor base is factored and divides
    _base_ring = cached_property(
        lambda self: PolyRing(self.coords + [self.u], sp.ZZ))
    _gens = cached_property(
        lambda self: dict(zip(self.ring.symbols, self.ring.gens)))

    def to_field(self, e: Expr) -> JetFraction | None:
        """e as a jet fraction, or None when it is none (exp, trigonometric
        functions, non-integer powers, foreign symbols, a jet or F_val,
        f_val, fprime_val in a denominator)."""
        try:
            return self._convert(sp.sympify(e))
        except (ValueError, ZeroDivisionError):
            return None

    def _convert(self, e: Expr) -> JetFraction:
        if e.is_Rational:
            return self.constant(e)
        if e.is_Symbol and e in self._gens:
            return JetFraction(self, self._gens[e])
        if e.is_Add:    # terms over one denominator add as numerators
            groups = {}
            for t in map(self._convert, e.args):
                groups.setdefault((t.c, t.exps), []).append(t)
            return sum(ts[0] if len(ts) == 1 else self._reduced(
                sum(t.numer for t in ts), c, exps, range(len(exps)))
                for (c, exps), ts in groups.items())
        if e.is_Mul:
            return math.prod(map(self._convert, e.args))
        if e.is_Pow and e.exp.is_Integer:
            return self._convert(e.base) ** int(e.exp)
        raise ValueError(f"{e} is no fraction of jet polynomials")

    def constant(self, r) -> JetFraction:
        if r not in self._constants:
            q = sp.Rational(r)
            self._constants[r] = JetFraction(
                self, self.ring.ground_new(q.p), int(q.q))
        return self._constants[r]

    def field_diff(self, p: JetFraction, s: sp.Symbol) -> JetFraction:
        """dp/ds; d/du also acts on F_val and f_val by the chain rule."""
        return self._derive(p, self._du if s == self.u
                            else lambda P: P.diff(self._gens[s]))

    def _du(self, P: PolyElement) -> PolyElement:
        g = self._gens
        return P.diff(g[self.u]) + sum(g[b] * P.diff(g[a])
                                       for a, b in self.CHAIN)

    def field_total_derivative(self, p: JetFraction, k: int) -> JetFraction:
        """D_k p = dp/dx^k + u_k dp/du + u_{ks} dp/du_s, with d/du carrying
        the chain rule."""
        g, x, uk = self._gens, self.coords[k], self.jet1(k)
        return self._derive(p, lambda P: P.diff(g[x]) + g[uk] * self._du(P)
                            + sum(g[self.jet2(k, s)] * P.diff(g[self.jet1(s)])
                                  for s in range(len(self.coords))))

    def _derive(self, p: JetFraction, delta) -> JetFraction:
        """delta p for a derivation delta of `ring`: the numerator delta P
        prod d_j - P sum_j e_j delta(d_j) prod_{i != j} d_i over
        d_j^(e_j + 1), j ranging over the factors delta moves.  Such a d_j
        divides neither P, the other d_i nor delta d_j, so only the factors
        delta annihilates are trial-divided."""
        N, P, exps, still = delta(p.numer), p.numer, list(p.exps), []
        for j, e in enumerate(p.exps):
            d = self._base[j][0]
            dd = delta(d) if e else None
            if dd:
                N, P, exps[j] = N * d - P.mul_ground(e) * dd, P * d, e + 1
            elif e:
                still.append(j)
        return self._reduced(N, p.c, exps, still)

    def _reduced(self, N: PolyElement, c: int, exps, strip) -> JetFraction:
        """N / (c prod d_j^exps[j]) in canonical form, when of the d_j only
        those in strip may divide N."""
        if not N:
            return JetFraction(self, N)
        exps = list(exps)
        for j in strip:
            N, exps[j] = self._strip(N, j, exps[j])
        g = math.gcd(c, *N.values())
        while exps and not exps[-1]:
            exps.pop()
        return JetFraction(self, N.quo_ground(g), c // g, tuple(exps))

    def _strip(self, N: PolyElement, j: int, e: int) -> tuple:
        """(N / d_j^k, e - k) for the largest k <= e with d_j^k | N: d_j
        divides N when it divides each coefficient of a jet monomial."""
        m, d = len(self.coords) + 1, self._base[j][1]
        for e in range(e, 0, -1):
            if N.is_ground:
                return N, e
            groups, quotient = {}, {}
            for mono, v in N.items():
                groups.setdefault(mono[m:], {})[mono[:m]] = v
            for jet, terms in groups.items():
                q, r = self._base_ring.dtype(terms).div(d)
                if r:
                    return N, e
                quotient.update((mono + jet, v) for mono, v in q.items())
            N = N.new(quotient)
        return N, 0

    def _common(self, fracs) -> tuple:
        """(numerators, c, exps) of fracs over their least common
        denominator c prod d_j^exps[j]"""
        exps = [max(e) for e in itertools.zip_longest(
            *(p.exps for p in fracs), fillvalue=0)]
        c, nums = reduce(math.lcm, (p.c for p in fracs)), []
        for p in fracs:
            N = p.numer if c == p.c else p.numer.mul_ground(c // p.c)
            for j, (e, have) in enumerate(itertools.zip_longest(
                    exps, p.exps, fillvalue=0)):
                if e > have:
                    N = N * self._base[j][0] ** (e - have)
            nums.append(N)
        return nums, c, exps

    def _inverse(self, p: JetFraction) -> JetFraction:
        """1/p for p free of jets and F_val, f_val, fprime_val; each new
        irreducible factor of its numerator joins the factor base."""
        m = len(self.coords) + 1
        if not p:
            raise ZeroDivisionError("division by zero in the chart's ring")
        if any(any(mono[m:]) for mono in p.numer):
            raise ValueError("a jet or F_val, f_val, fprime_val divides")
        P = self._base_ring.dtype({mono[:m]: v for mono, v in p.numer.items()})
        if P not in self._factored:
            (unit, factors), exps = P.factor_list(), {}
            for d, e in factors:
                if sp.Poly(d.as_expr()).LC() < 0:   # in sympy's gen order
                    d, unit = -d, unit * (-1) ** e
                if d not in self._base_index:
                    self._base_index[d] = len(self._base)
                    self._base.append((d.set_ring(self.ring), d))
                exps[self._base_index[d]] = e
            self._factored[P] = int(unit), tuple(
                exps.get(j, 0) for j in range(max(exps, default=-1) + 1))
        unit, exps = self._factored[P]
        return JetFraction(self, self.ring.ground_new(p.c if unit > 0 else -p.c)
                           * math.prod(self._base[j][0] ** e for j, e
                                       in enumerate(p.exps) if e), abs(unit), exps)

    def lookup(self, name: str) -> sp.Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol '{name}'") from None

    def jet1(self, i: int) -> sp.Symbol:
        return self.first_jets[i]

    def jet2(self, i: int, j: int) -> sp.Symbol:
        return self.second_jets[(min(i, j), max(i, j))]

    def all_jets(self) -> list[sp.Symbol]:
        return [self.u] + list(self.first_jets) + list(self.second_jets.values())


class JetFraction(CantSympify):
    """P / (c prod_j d_j^e_j): P in the table's `ring`, c > 0 an integer
    and the d_j its growing factor base, irreducible primitive polynomials
    in (coords, u), positive-leading in sympy's generator order as `cancel`
    signs them.  The form is canonical (d_j does not divide P when e_j > 0,
    gcd(content P, c) = 1, exps ends in no zero), so == and hash are
    structural, and no arithmetic takes a gcd, only trial divisions by the
    factors that may cancel (Henrici): `*` strips d_j from the operand whose
    e_j is 0, `+` those whose exponents were equal.  Divisors are jet-free."""

    __slots__ = ("table", "numer", "c", "exps", "_hash")

    def __init__(self, table: SymbolTable, numer: PolyElement, c: int = 1,
                 exps: tuple = ()):
        self.table, self.numer, self.c, self.exps = table, numer, c, exps
        self._hash = None

    def _lift(self, other) -> JetFraction:
        return other if isinstance(other, JetFraction) \
            else self.table.constant(other)

    def __hash__(self):
        # of the terms: PolyElement.square caches a hash mid-construction
        if self._hash is None:
            self._hash = hash((frozenset(self.numer.items()), self.c,
                               self.exps))
        return self._hash

    def __eq__(self, other):
        return (isinstance(other, JetFraction) and self.c == other.c
                and self.exps == other.exps and self.numer == other.numer)

    def __bool__(self):
        return bool(self.numer)

    def __neg__(self):
        return JetFraction(self.table, -self.numer, self.c, self.exps)

    def __add__(self, other):
        q, T = self._lift(other), self.table
        if not (self and q):
            return self if self else q
        (P, Q), c, exps = T._common([self, q])
        return T._reduced(P + Q, c, exps, [
            j for j, (a, b) in enumerate(itertools.zip_longest(
                self.exps, q.exps, fillvalue=0)) if a and a == b])

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        q, T = self._lift(other), self.table
        if not (self and q):
            return T.constant(0)
        P, Q, exps = self.numer, q.numer, []
        for j, (a, b) in enumerate(itertools.zip_longest(
                self.exps, q.exps, fillvalue=0)):
            if a and not b:
                Q, a = T._strip(Q, j, a)
            elif b and not a:
                P, b = T._strip(P, j, b)
            exps.append(a + b)
        g, h = math.gcd(q.c, *P.values()), math.gcd(self.c, *Q.values())
        return T._reduced(P.quo_ground(g) * Q.quo_ground(h),
                          (self.c // h) * (q.c // g), exps, ())

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.table._inverse(self) ** -k
        return JetFraction(self.table, self.numer ** k, self.c ** k, tuple(
            e * k for e in self.exps) if k else ())

    def __truediv__(self, other):
        return self * self._lift(other) ** -1

    def as_expr(self, expanded: bool = False) -> Expr:
        """P / (c prod d_j^e_j); expanded, normalize's Expr (no gcd taken)."""
        den = sp.Mul(self.c, *[self.table._base[j][0].as_expr() ** e
                               for j, e in enumerate(self.exps) if e])
        return self.numer.as_expr() / (sp.expand(den) if expanded else den)


# ---------------------------------------------------------------------------
# parsing

_OPERATORS = set("+-*/^()")
#: deepest nesting of parentheses, function calls, signs and exponents the
#: parser accepts; deeper input is a ParseError, not a RecursionError
MAX_NESTING = 100


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise ParseError("malformed number", i)
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(("NUMBER", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character '{c}'", i)
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, table: SymbolTable):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.table = table
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected '{kind}'", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError("unexpected trailing input", tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            e = e * rhs if op == "*" else e / rhs
        return e

    def factor(self) -> Expr:
        # every nested construct passes through here
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING}",
                             self.peek()[2])
        self.depth += 1
        try:
            if self.peek()[0] == "-":
                self.advance()
                return -self.factor()
            b = self.base()
            if self.peek()[0] == "^":
                self.advance()
                return b ** self.factor()
            return b
        finally:
            self.depth -= 1

    def base(self) -> Expr:
        tok = self.advance()
        kind, text, offset = tok
        if kind == "NUMBER":
            if "." in text:
                whole, frac = text.split(".")
                return sp.Rational(int(whole + frac), 10 ** len(frac))
            return sp.Integer(int(text))
        if kind == "IDENT":
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function '{text}'", offset)
                self.advance()
                arg = self.expr()
                self.expect(")")
                return FUNCTIONS[text](arg)
            return self.table.lookup(text)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected token '{text or kind}'", offset)


def parse(text: str, table: SymbolTable) -> Expr:
    """Parse text under the fixed grammar; unknown identifiers and
    non-finite values (1/0, 0/0, ln(0)) are an error."""
    e = _Parser(text, table).parse()
    if e.has(sp.zoo, sp.nan):
        raise ParseError(f"'{text}' is not finite", 0)
    return e


def to_grammar(e: Expr) -> str:
    """Print an expression in the same grammar `parse` accepts."""
    return sp.sstr(e).replace("**", "^").replace("log(", "ln(")


# ---------------------------------------------------------------------------
# normalization / differentiation / evaluation

def _normalize_function_args(e: Expr) -> Expr:
    if isinstance(e, sp.Function):
        return e.func(*[normalize(a) for a in e.args])
    if e.args:
        return e.func(*[_normalize_function_args(a) for a in e.args])
    return e


def normalize(e: Expr) -> Expr:
    """Idempotent, semantics-preserving normal form.

    Rational subexpressions go to a common-denominator canonical form
    (sympy `cancel`); exponentials are merged (exp(a)*exp(b) -> exp(a+b));
    other transcendental kernels are opaque generators with normalized
    arguments.
    """
    e = sp.sympify(e)
    e = _normalize_function_args(e)
    if e.has(sp.exp) or any(not p.exp.is_Number for p in e.atoms(sp.Pow)):
        # powsimp only combines exponentials and powers with symbolic
        # exponents; elsewhere it is a costly no-op
        e = sp.powsimp(e, deep=True, combine="exp")
    return sp.cancel(e)


def diff(e: Expr, s: sp.Symbol) -> Expr:
    """Exact partial derivative; jet symbols are independent variables."""
    return normalize(sp.diff(sp.sympify(e), s))


def eval_num(e: Expr, bindings: Mapping[sp.Symbol, float]) -> float:
    """IEEE double evaluation; NaN/Inf/complex results raise, never leak."""
    e = sp.sympify(e)
    free = e.free_symbols
    missing = free - set(bindings)
    if missing:
        raise EvaluationError(f"unbound symbols: {sorted(map(str, missing))}")
    try:
        val = e.evalf(subs={s: sp.Float(v) for s, v in bindings.items()
                            if s in free})
        cval = complex(val)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise EvaluationError(f"evaluation failed for {e}") from None
    if not (math.isfinite(cval.real) and math.isfinite(cval.imag)):
        raise EvaluationError(f"non-finite result {cval}")
    if abs(cval.imag) > 1e-12 * (1.0 + abs(cval.real)):
        raise EvaluationError(f"complex result {cval}")
    return cval.real


# ---------------------------------------------------------------------------
# zero testing

class Verdict(Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    INCONCLUSIVE = "inconclusive"


#: the zero test's sample count, the scaled sample size at or below which it
#: counts as zero and above which it certifies NonZero, and the range of a
#: symbol without a safe box
SAMPLES, ABS_TOL, NONZERO_MARGIN, DEFAULT_RANGE = 16, 1e-9, 1e-3, (-2.0, 2.0)


@dataclass(frozen=True)
class ZeroTestPolicy:
    """Sampling policy for the numeric half of the zero test.

    `box` gives per-symbol safe ranges (e.g. z in [0.5, 2] on upper-half-space
    charts); symbols not listed use DEFAULT_RANGE.  A Zero verdict needs the
    canonical form to vanish *and* every sample to stay below the scaled
    tolerance; a single sample above the margin certifies NonZero.
    """

    box: Mapping[sp.Symbol, tuple[float, float]] = field(default_factory=dict)
    seed: int = 1234

    def draw(self, rng: random.Random, sym: sp.Symbol) -> float:
        lo, hi = self.box.get(sym, DEFAULT_RANGE)
        return rng.uniform(lo, hi)


def sample(e: Expr, policy: ZeroTestPolicy):
    """Evaluate e (and a magnitude scale) at the policy's sample points."""
    free = sorted(e.free_symbols, key=str)
    terms = list(e.args) if e.is_Add else [e]
    fn = sp.lambdify(free, [e] + terms, "math")
    rng = random.Random(policy.seed)
    values, scales = [], []
    attempts = 0
    while len(values) < SAMPLES and attempts < SAMPLES * 10:
        attempts += 1
        point = [policy.draw(rng, s) for s in free]
        try:
            vals = fn(*point)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        if any(isinstance(v, complex) or not math.isfinite(v) for v in vals):
            continue
        values.append(abs(vals[0]))
        scales.append(max(abs(v) for v in vals[1:]) if len(vals) > 1 else 0.0)
    return values, scales


def is_zero(e: Expr, policy: ZeroTestPolicy | None = None) -> Verdict:
    """Three-valued zero test: canonicalization plus safe-box sampling.

    Inconclusive is reported, never silently treated as zero.
    """
    policy = policy or ZeroTestPolicy()
    e = sp.sympify(e)
    if e.args:
        # cheap pre-screen: a sample clearly above the margin certifies
        # NonZero without paying for canonicalization of large expressions
        values, scales = sample(e, policy)
        if values and max(values) > NONZERO_MARGIN * (1.0 + max(scales)):
            return Verdict.NONZERO
        if values and max(values) <= ABS_TOL * (1.0 + max(scales)):
            # numerics say zero; try the cheap exact certificate (expanded
            # numerator over a common denominator) before the expensive one
            num, _ = sp.fraction(sp.together(e))
            if sp.expand(num) == 0:
                return Verdict.ZERO
    n = normalize(e)
    if n == 0:
        return Verdict.ZERO
    if n.is_Number:
        return Verdict.NONZERO
    values, scales = sample(n, policy)
    if not values:
        return Verdict.INCONCLUSIVE
    scale = 1.0 + max(scales)
    if max(values) > NONZERO_MARGIN * scale:
        return Verdict.NONZERO
    if max(values) <= ABS_TOL * scale:
        # numerics say zero; demand a symbolic certificate before agreeing
        if sp.simplify(n) == 0:
            return Verdict.ZERO
    return Verdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# exact linear relations

_TRIG = (sp.sin, sp.cos, sp.tan, sp.sinh, sp.cosh, sp.tanh)


def _power_families(atoms, split):
    """Map each atom to prod g_key^(r L_key), where split(atom) gives its
    [(key, r)] with r rational, g_key is one new generator per key and L_key
    the least common denominator of the key's r.  Returns the mapping and
    {key: (g_key, L_key)}."""
    parts = {a: split(a) for a in atoms}
    lcd = {}
    for key, r in itertools.chain(*parts.values()):
        lcd[key] = sp.ilcm(lcd.get(key, 1), r.q)
    gens = {key: (sp.Dummy("g"), L) for key, L in lcd.items()}
    return {a: sp.Mul(*[gens[k][0] ** (r * gens[k][1]) for k, r in pairs])
            for a, pairs in parts.items()}, gens


def _independent_kernels(exprs):
    """exprs over algebraically independent kernels, and the radical
    relations [(R, L, b)] meaning R^L = b.

    sin, cos, tan, sinh, cosh and tanh become exponentials (which may bring
    in I), each family exp(r t) becomes powers of one generator exp(t/L),
    each radical family b^(k/q) powers of one generator R = b^(1/L), and
    logarithms are expanded.  Every step is an identity on the chart.
    """
    exprs = [sp.expand_log(sp.sympify(e).rewrite(_TRIG, sp.exp), force=True)
             for e in exprs]
    mapping, _ = _power_families(
        set().union(*(e.atoms(sp.exp) for e in exprs)),
        lambda a: [t.as_coeff_Mul(rational=True)[::-1]
                   for t in sp.Add.make_args(sp.expand(a.args[0]))])
    exprs = [e.xreplace(mapping) for e in exprs]
    mapping, gens = _power_families(
        {p for e in exprs for p in e.atoms(sp.Pow)
         if p.exp.is_Rational and not p.exp.is_Integer},
        lambda p: [(p.base, p.exp)])
    exprs = [e.xreplace(mapping) for e in exprs]
    return exprs, [(R, L, b.xreplace(mapping)) for b, (R, L) in gens.items()]


def _cleared(fracs):
    """Numerators over the least common denominator of fracs."""
    den = reduce(lambda p, q: p.lcm(q), dict.fromkeys(f.denom for f in fracs))
    return [f.numer * den.exquo(f.denom) for f in fracs]


def _reduce_radical(p, i, L, b):
    """p with each power R^(qL+r) of R = the i-th generator replaced by
    R^r b^q, b being an element of the field."""
    K = b.field
    low, high = {}, K.zero
    for mono, c in p.terms():
        q, r = divmod(mono[i], L)
        if q:
            high += K(p.ring({mono[:i] + (r,) + mono[i + 1:]: c})) * b**q
        else:
            low[mono] = c
    return K(p.ring(low)) + high


def _field_elements(exprs):
    """exprs in one rational function field over independent kernels: the
    elements, the radical reductions [(i, L, b)] meaning R^L = b for the
    i-th generator R, and the split of a coefficient into real parts."""
    flat, radicals = _independent_kernels(exprs)
    exprs = flat + [b for _, _, b in radicals]
    gaussian = any(e.has(sp.I) for e in exprs)
    K, elems = sfield(exprs, domain=sp.QQ_I if gaussian else sp.QQ)
    gens = K.ring.symbols
    reductions = [(gens.index(R), L, b) for (R, L, _), b
                  in zip(radicals, elems[len(flat):]) if R in gens]
    parts = (lambda c: (c.x, c.y)) if gaussian else (lambda c: (c,))
    return elems[:len(flat)], reductions, parts


def linear_relations(columns) -> list:
    """RREF basis over QQ of {c : sum_k c_k columns[k] == 0 identically}.

    Each column is a tuple of entries, all of one length.  Entries that are
    all jet fractions (`JetFraction`) are brought over each row's least
    common denominator; expressions are first brought over independent
    kernels into one rational function field, cleared of denominators and
    reduced modulo the radical relations.  Either way each row becomes one
    polynomial per column, split by monomial and into real and imaginary
    parts, which leaves a linear system over QQ.  Every relation returned
    holds; all are found when the remaining kernels are algebraically
    independent.
    """
    if not columns:
        return []
    width, height = len(columns), len(columns[0])
    flat = [e for col in columns for e in col]
    if all(isinstance(e, JetFraction) for e in flat):
        rows = [flat[0].table._common(flat[r::height])[0]
                for r in range(height)]
        parts = lambda c: (sp.QQ(c),)
    else:
        elems, reductions, parts = _field_elements(flat)
        rows = []
        for r in range(height):
            polys = _cleared(elems[r::height])
            for i, L, b in reductions:
                polys = _cleared([_reduce_radical(p, i, L, b) for p in polys])
            rows.append(polys)
    equations = {}
    for r, polys in enumerate(rows):
        for k, p in enumerate(polys):
            for mono, c in p.terms():
                for part, v in enumerate(parts(c)):
                    if v:
                        equations.setdefault((r, mono, part), {})[k] = v
    A = DomainMatrix(dict(enumerate(equations.values())),
                     (len(equations), width), sp.QQ)
    return A.nullspace().rref()[0].to_Matrix().tolist()
