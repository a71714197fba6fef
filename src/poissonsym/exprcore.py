"""Symbolic expression kernel.

Thin, contract-enforcing layer over sympy: a fixed input grammar, exact
rational constants, a normal form for rational expressions with opaque
transcendental kernels, numeric evaluation that refuses to return NaN/Inf,
a sampling+canonicalization zero test, exact linear relations over QQ
between tuples of expressions, and a chart's jet polynomials over its
rational function field, with their derivations.  Everything upstream
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

    `ring` is K[u_i, u_ij, F_val, f_val, fprime_val] over the rational
    function field K = QQ(coords, u), in which the chart's rational jet
    expressions have an exact normal form.
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

    # -- the jet ring over the rational function field ---------------------

    @cached_property
    def ring(self) -> PolyRing:
        """K[u_i, u_ij, F_val, f_val, fprime_val] over K = QQ(coords, u),
        written over ZZ, built on first use: jets enter every identity of
        this package polynomially, so only K's coefficients are cancelled,
        in n + 1 variables."""
        K = sp.ZZ.frac_field(*self.coords, self.u)
        return PolyRing(self.all_jets()[1:] + [self.F, self.f, self.fprime], K)

    def to_field(self, e: Expr) -> PolyElement | None:
        """e as a ring element, or None when e lies outside the ring (exp,
        trigonometric functions, non-integer powers, foreign symbols, a jet
        or F_val, f_val, fprime_val in a denominator)."""
        try:
            return self.ring.from_expr(e)
        except (ValueError, ZeroDivisionError):
            return None

    @cached_property
    def _gens(self) -> dict:
        """symbol -> its generator: the ring's for a jet or a reserved
        symbol, K's for a coordinate or u"""
        ring, K = self.ring, self.ring.domain
        return dict(zip(ring.symbols + K.symbols, ring.gens + K.field.gens))

    def field_diff(self, p: PolyElement, s: sp.Symbol) -> PolyElement:
        """dp/ds: in the ring for a jet, else coefficientwise in K; d/du
        also acts on F_val and f_val by the chain rule."""
        g = self._gens
        if isinstance(g[s], PolyElement):
            return p.diff(g[s])
        d = self.ring.from_dict({m: c.diff(g[s]) for m, c in p.items()})
        if s == self.u:
            d += sum(g[b] * p.diff(g[a]) for a, b in self.CHAIN)
        return d

    def field_total_derivative(self, p: PolyElement, k: int) -> PolyElement:
        """D_k p = dp/dx^k + u_k dp/du + u_{ks} dp/du_s, with d/du carrying
        the chain rule."""
        g = self._gens
        out = self.field_diff(p, self.coords[k])
        out += g[self.jet1(k)] * self.field_diff(p, self.u)
        for s in range(len(self.coords)):
            out += g[self.jet2(k, s)] * p.diff(g[self.jet1(s)])
        return out

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
    all elements of one jet ring (`SymbolTable.ring`) are split as they are;
    expressions are first brought over independent kernels into one
    rational function field.  Each row is split by jet monomial, each
    coefficient cleared of denominators, reduced modulo the radical
    relations and split by monomial and into real and imaginary parts,
    which leaves a linear system over QQ.  Every relation returned holds;
    all are found when the remaining kernels are algebraically independent.
    """
    if not columns:
        return []
    width, height = len(columns), len(columns[0])
    flat = [e for col in columns for e in col]
    if all(isinstance(e, PolyElement) for e in flat):
        elems, reductions, parts = flat, [], lambda c: (sp.QQ(c),)
    else:
        elems, reductions, parts = _field_elements(flat)
    equations = {}
    for r in range(height):
        # {jet monomial: coefficient}; an Expr-route element is one coefficient
        terms = [e if isinstance(e, PolyElement) else {(): e}
                 for e in elems[r::height]]
        for jet in dict.fromkeys(itertools.chain(*terms)):
            ks = [k for k in range(width) if jet in terms[k]]
            polys = _cleared([terms[k][jet] for k in ks])
            for i, L, b in reductions:
                polys = _cleared([_reduce_radical(p, i, L, b) for p in polys])
            for k, p in zip(ks, polys):
                for mono, c in p.terms():
                    for part, v in enumerate(parts(c)):
                        if v:
                            key = (r, jet, mono, part)
                            equations.setdefault(key, {})[k] = v
    A = DomainMatrix(dict(enumerate(equations.values())),
                     (len(equations), width), sp.QQ)
    return A.nullspace().rref()[0].to_Matrix().tolist()
