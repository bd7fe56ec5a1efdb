"""Holomorphic functions of one split-complex variable.

Expressions over {constants, z, + - * /, integer powers, exp, sqrt} are
parsed to an immutable tree, or built with the operators + - * / ** and
unary -.  Every operation in the grammar commutes with the null-coordinate
splitting, so evaluation, quadrature and its inversion all reduce to two
independent real computations, and every singularity is a whole null line.

Arrays mask with NaN, scalars raise: on an array, a node whose path meets a
null-line denominator or a negative square root comes out NaN (and NaN
propagates through every later operation); at a scalar point the same
singularity raises ZeroDivisor or NoSquareRoot.
"""

from __future__ import annotations

import re as _regex
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import NULL_EPS, SplitComplex, from_null, splitc
from ._dpoly import DPoly

__all__ = [
    "HoloExpr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Neg",
    "Mul",
    "Div",
    "Pow",
    "Exp",
    "Sqrt",
    "Z",
    "PLUS",
    "MINUS",
    "ExprSyntaxError",
    "DomainError",
    "parse",
    "integrate_sweep",
    "pole_gaps",
    "poly_to_expr",
    "expr_to_poly",
]

PLUS = 0
MINUS = 1


class ExprSyntaxError(SyntaxError):
    """Parse failure; carries the byte offset and the expected-token set."""

    def __init__(self, message, offset, expected=()):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset
        self.expected = frozenset(expected)


class DomainError(ArithmeticError):
    """A singularity was met along an integration segment or region."""


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5


class HoloExpr:
    """Base class for expression nodes.  Immutable, hashable, comparable."""

    __slots__ = ()

    def __call__(self, z):
        return self.eval(z)

    def eval(self, z) -> SplitComplex:
        """Evaluate via the null-coordinate decomposition (scalar or array z).

        Arrays mask with NaN, scalars raise: array nodes where a denominator
        is null or a radicand negative are NaN, while a scalar z there raises
        ZeroDivisor or NoSquareRoot.
        """
        z = SplitComplex._coerce(z)
        return from_null(self.eval_null(z.p, PLUS), self.eval_null(z.q, MINUS))

    def eval_null(self, t, side):  # pragma: no cover - overridden
        raise NotImplementedError

    def derivative(self) -> "HoloExpr":
        raise NotImplementedError

    def subs(self, repl: "HoloExpr") -> "HoloExpr":
        """Substitute `repl` for the variable."""
        raise NotImplementedError

    def to_str(self, prec=0) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.to_str())

    # operators go through the smart constructors, as the parser does
    def __add__(self, other):
        return _add(self, other)

    def __sub__(self, other):
        return _sub(self, other)

    def __mul__(self, other):
        return _mul(self, other)

    def __truediv__(self, other):
        return _div(self, other)

    def __neg__(self):
        return _neg(self)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            return NotImplemented
        return _pow(self, n)

    @property
    def precedence(self):
        return _PREC_ATOM


@dataclass(frozen=True, repr=False)
class Const(HoloExpr):
    value: SplitComplex

    def eval_null(self, t, side):
        v = self.value.p if side == PLUS else self.value.q
        if isinstance(t, np.ndarray):
            return np.full(t.shape, v)
        return v

    def derivative(self):
        return Const(splitc(0.0))

    def subs(self, repl):
        return self

    @property
    def precedence(self):
        # composite literals print as a sum/difference, so they need parens
        # inside any operator context to reparse to the same node
        if self.value.re != 0.0 and self.value.im != 0.0:
            return 0
        if self.value.re < 0.0 or self.value.im < 0.0:
            return _PREC_UNARY
        return _PREC_ATOM

    def to_str(self, prec=0):
        s = str(self.value)
        if prec > self.precedence:
            return "(%s)" % s
        return s


@dataclass(frozen=True, repr=False)
class Var(HoloExpr):
    def eval_null(self, t, side):
        return t

    def derivative(self):
        return Const(splitc(1.0))

    def subs(self, repl):
        return repl

    def to_str(self, prec=0):
        return "z"


Z = Var()


class _Binary(HoloExpr):
    __slots__ = ()
    op = "?"
    prec = 0

    @property
    def precedence(self):
        return self.prec

    def to_str(self, prec=0):
        # parse is left-associative, so a right operand at the same level
        # must be parenthesized to reparse to the same tree
        s = "%s %s %s" % (
            self.a.to_str(self.prec),
            self.op,
            self.b.to_str(self.prec + 1),
        )
        if prec > self.prec:
            return "(%s)" % s
        return s


@dataclass(frozen=True, repr=False)
class Add(_Binary):
    a: HoloExpr
    b: HoloExpr
    op = "+"
    prec = _PREC_ADD

    def eval_null(self, t, side):
        return self.a.eval_null(t, side) + self.b.eval_null(t, side)

    def derivative(self):
        return _add(self.a.derivative(), self.b.derivative())

    def subs(self, repl):
        return _add(self.a.subs(repl), self.b.subs(repl))


@dataclass(frozen=True, repr=False)
class Sub(_Binary):
    a: HoloExpr
    b: HoloExpr
    op = "-"
    prec = _PREC_ADD

    def eval_null(self, t, side):
        return self.a.eval_null(t, side) - self.b.eval_null(t, side)

    def derivative(self):
        return _sub(self.a.derivative(), self.b.derivative())

    def subs(self, repl):
        return _sub(self.a.subs(repl), self.b.subs(repl))


@dataclass(frozen=True, repr=False)
class Neg(HoloExpr):
    a: HoloExpr

    def eval_null(self, t, side):
        return -self.a.eval_null(t, side)

    def derivative(self):
        return _neg(self.a.derivative())

    def subs(self, repl):
        return _neg(self.a.subs(repl))

    @property
    def precedence(self):
        return _PREC_UNARY

    def to_str(self, prec=0):
        s = "-%s" % self.a.to_str(_PREC_UNARY)
        if prec > _PREC_UNARY:
            return "(%s)" % s
        return s


@dataclass(frozen=True, repr=False)
class Mul(_Binary):
    a: HoloExpr
    b: HoloExpr
    op = "*"
    prec = _PREC_MUL

    def eval_null(self, t, side):
        return self.a.eval_null(t, side) * self.b.eval_null(t, side)

    def derivative(self):
        return _add(
            _mul(self.a.derivative(), self.b), _mul(self.a, self.b.derivative())
        )

    def subs(self, repl):
        return _mul(self.a.subs(repl), self.b.subs(repl))


@dataclass(frozen=True, repr=False)
class Div(_Binary):
    a: HoloExpr
    b: HoloExpr
    op = "/"
    prec = _PREC_MUL

    def eval_null(self, t, side):
        den = self.b.eval_null(t, side)
        return _masked(
            np.abs(den) < NULL_EPS, den,
            lambda d: self.a.eval_null(t, side) / d,
            lambda: algebra.ZeroDivisor("null-line denominator in subexpression '%s'" % self.b),
        )

    def derivative(self):
        num = _sub(
            _mul(self.a.derivative(), self.b), _mul(self.a, self.b.derivative())
        )
        return _div(num, _pow(self.b, 2))

    def subs(self, repl):
        return _div(self.a.subs(repl), self.b.subs(repl))


@dataclass(frozen=True, repr=False)
class Pow(HoloExpr):
    base: HoloExpr
    n: int

    def eval_null(self, t, side):
        b = self.base.eval_null(t, side)
        if self.n >= 0:
            return b**self.n
        return _masked(
            np.abs(b) < NULL_EPS, b,
            lambda x: x**self.n,
            lambda: algebra.ZeroDivisor("null-line base of negative power in '%s'" % self),
        )

    def derivative(self):
        inner = self.base.derivative()
        return _mul(
            _mul(Const(splitc(float(self.n))), _pow(self.base, self.n - 1)), inner
        )

    def subs(self, repl):
        return _pow(self.base.subs(repl), self.n)

    @property
    def precedence(self):
        return _PREC_POW

    def to_str(self, prec=0):
        s = "%s^%d" % (self.base.to_str(_PREC_ATOM), self.n)
        if prec > _PREC_POW:
            return "(%s)" % s
        return s


def _masked(bad, operand, op, error):
    """op(operand) with NaN where bad on arrays, where op sees 1.0 at the bad
    nodes so that values it discards cannot overflow; on a scalar, raise error() if bad."""
    if np.ndim(bad) == 0:
        if bad:
            raise error()
        return op(operand)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(bad, np.nan, op(np.where(bad, 1.0, operand)))


class _Call(HoloExpr):
    __slots__ = ()
    fname = "?"

    def to_str(self, prec=0):
        return "%s(%s)" % (self.fname, self.a.to_str())


@dataclass(frozen=True, repr=False)
class Exp(_Call):
    a: HoloExpr
    fname = "exp"

    def eval_null(self, t, side):
        return np.exp(self.a.eval_null(t, side))

    def derivative(self):
        return _mul(self.a.derivative(), self)

    def subs(self, repl):
        return _exp(self.a.subs(repl))


@dataclass(frozen=True, repr=False)
class Sqrt(_Call):
    a: HoloExpr
    fname = "sqrt"

    def eval_null(self, t, side):
        v = self.a.eval_null(t, side)
        return _masked(
            v < 0.0, v,
            np.sqrt,
            lambda: algebra.NoSquareRoot("negative null component under sqrt in '%s'" % self),
        )

    def derivative(self):
        return _div(self.a.derivative(), _mul(Const(splitc(2.0)), self))

    def subs(self, repl):
        return _sqrt(self.a.subs(repl))


# ---------------------------------------------------------------------------
# smart constructors (shared by the parser and symbolic calculus, so that
# printed trees reparse to structurally identical trees)
# ---------------------------------------------------------------------------


def _is_const(e, value=None):
    if not isinstance(e, Const):
        return False
    if value is None:
        return True
    return not e.value._is_array and e.value == splitc(value)


def _add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def _mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(splitc(0.0))
    return Mul(a, b)


def _div(a, b):
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and bool(b.value.is_invertible()):
        return Const(a.value / b.value)
    return Div(a, b)


def _finite(v: SplitComplex) -> bool:
    return bool(np.isfinite(v.re) and np.isfinite(v.im))


def _pow(base, n):
    n = int(n)
    if n == 1:
        return base
    if n == 0:
        return Const(splitc(1.0))
    if isinstance(base, Const) and (n > 0 or bool(base.value.is_invertible())):
        folded = base.value**n
        if _finite(folded):
            return Const(folded)
    return Pow(base, n)


def _exp(a):
    if isinstance(a, Const):
        folded = algebra.exp(a.value)
        if _finite(folded):
            return Const(folded)
    return Exp(a)


def _sqrt(a):
    if isinstance(a, Const):
        v = a.value
        if not v._is_array and v.p >= 0.0 and v.q >= 0.0:
            return Const(algebra.sqrt(v))
    return Sqrt(a)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN_RE = _regex.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass
class _Token:
    kind: str  # num | name | op | end
    text: str
    pos: int
    value: float = 0.0


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError("unexpected character %r" % text[at], at)
        if m.group("num") is not None:
            tokens.append(_Token("num", m.group("num"), m.start("num"), float(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def cur(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        tok = self.cur
        found = tok.text if tok.kind != "end" else "end of input"
        raise ExprSyntaxError(
            "expected %s, found %s" % (" or ".join(sorted(expected)), found),
            tok.pos,
            expected,
        )

    def expect_op(self, op):
        if self.cur.kind == "op" and self.cur.text == op:
            return self.advance()
        self.fail({"'%s'" % op})

    def parse(self):
        e = self.expr()
        if self.cur.kind != "end":
            self.fail({"operator", "end of input"})
        return e

    def expr(self):
        e = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance().text
            rhs = self.term()
            e = _add(e, rhs) if op == "+" else _sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.advance().text
            rhs = self.factor()
            e = _mul(e, rhs) if op == "*" else _div(e, rhs)
        return e

    def factor(self):
        if self.cur.kind == "op" and self.cur.text == "-":
            self.advance()
            return _neg(self.factor())
        a = self.atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            self.advance()
            sign = 1
            if self.cur.kind == "op" and self.cur.text == "-":
                self.advance()
                sign = -1
            tok = self.cur
            if tok.kind != "num" or ("." in tok.text or "e" in tok.text or "E" in tok.text):
                self.fail({"integer exponent"})
            self.advance()
            return _pow(a, sign * int(tok.text))
        return a

    def atom(self):
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            if self.cur.kind == "name" and self.cur.text.lower() == "j":
                self.advance()
                return Const(splitc(0.0, tok.value))
            return Const(splitc(tok.value))
        if tok.kind == "name":
            name = tok.text.lower()
            if tok.text == "z":
                self.advance()
                return Z
            if name in ("exp", "sqrt"):
                self.advance()
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return _exp(inner) if name == "exp" else _sqrt(inner)
            self.fail({"'z'", "'exp'", "'sqrt'", "number"})
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        self.fail({"number", "'z'", "'('", "'exp'", "'sqrt'"})


def parse(text: str) -> HoloExpr:
    """Parse expression text; raises ExprSyntaxError with offset and expected set."""
    return _Parser(text).parse()


def contains_var(e: HoloExpr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, (Const,)):
        return False
    if isinstance(e, Pow):
        return contains_var(e.base)
    if isinstance(e, (Neg, Exp, Sqrt)):
        return contains_var(e.a)
    return contains_var(e.a) or contains_var(e.b)


def parse_constant(text: str) -> SplitComplex:
    """Parse a constant expression (no variable) down to a split-complex value."""
    e = parse(text)
    if contains_var(e):
        raise ValueError("not a constant expression: %r" % text)
    if isinstance(e, Const):
        return e.value
    return e.eval(splitc(0.0))


# ---------------------------------------------------------------------------
# the polynomial fragment
# ---------------------------------------------------------------------------

_MAX_DEGREE = 64


def _times(a, b):
    """a * b; None when a factor is None or the product exceeds _MAX_DEGREE."""
    if a is None or b is None:
        return None
    prod = a * b
    return prod if prod.degree <= _MAX_DEGREE else None


def _over(a, b):
    """a divided per null side by an invertible constant b; None otherwise."""
    if b is None or b.degree > 0 or not b.coeff(0).is_invertible():
        return None
    return DPoly(a.plus / b.plus[0], a.minus / b.minus[0])


def poly_to_expr(poly: DPoly) -> HoloExpr:
    """Expression tree for a split-complex polynomial."""
    out = Const(splitc(0.0))
    for k, c in enumerate(poly.coeffs()):
        if c == splitc(0.0):
            continue
        out = _add(out, _mul(Const(c), _pow(Z, k)))
    return out


def expr_to_poly(e: HoloExpr) -> DPoly | None:
    """The polynomial equal to `e`, or None when `e` is outside the fragment.

    The fragment is constants, z, + - *, integer powers, division by an
    invertible constant, and exp or sqrt of a constant, up to degree
    _MAX_DEGREE.  Every zero coefficient comes out as +0.0.
    """
    if isinstance(e, Const):
        out = DPoly.const(e.value)
    elif isinstance(e, Var):
        out = DPoly.x()
    elif isinstance(e, Pow):
        base = expr_to_poly(e.base)
        out = DPoly.const(splitc(1.0))
        for _ in range(abs(e.n)):
            out = _times(out, base)
        if e.n < 0:
            out = _over(DPoly.const(splitc(1.0)), out)
    elif isinstance(e, Neg):
        a = expr_to_poly(e.a)
        out = None if a is None else -a
    elif isinstance(e, (Exp, Sqrt)):
        a = expr_to_poly(e.a)
        if a is None or a.degree > 0:
            return None
        if isinstance(e, Sqrt) and (a.plus[0] < 0.0 or a.minus[0] < 0.0):
            return None
        fn = np.exp if isinstance(e, Exp) else np.sqrt
        out = DPoly(fn(a.plus[:1]), fn(a.minus[:1]))
    else:
        a = expr_to_poly(e.a)
        b = None if a is None else expr_to_poly(e.b)
        if b is None:
            return None
        if isinstance(e, Mul):
            out = _times(a, b)
        elif isinstance(e, Div):
            out = _over(a, b)
        else:
            out = a + b if isinstance(e, Add) else a - b
    return None if out is None else DPoly.zero() + out


def constant_value(e: HoloExpr) -> SplitComplex | None:
    """The constant value of `e` when it reduces symbolically to one."""
    poly = expr_to_poly(e)
    return poly.coeff(0) if poly is not None and poly.degree == 0 else None


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature (G7, K15), batched over gaps
# ---------------------------------------------------------------------------

# QUADPACK qk15: the Kronrod nodes on [0, 1] (every second one is a Gauss
# node), their weights, and the weights of the 7-point Gauss rule
_XGK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)
_GK_NODES = np.concatenate([_XGK, -_XGK[-2::-1]])
_GK_WK = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_WG = np.zeros(15)
_GK_WG[1::2] = np.concatenate([_WG, _WG[-2::-1]])

# panels one gap may use; a gap that needs more is treated as singular
MAX_PANELS = 200


def _gk_panels(funs, owner, a, b):
    """K15 values and |K15 - G7| errors, shaped (panels, components), of the
    panels [a, b]; the panels finite in every component; whether there is
    one component.  funs[k] gets the panels of owner == k as one (panels, 15)
    array; an expression's eval_null is NaN only within NULL_EPS of a null
    denominator or at a negative radicand, not merely next to a pole."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    k15, good = None, np.empty(len(a), bool)
    # one problem at a time, its values freed before the next, bounds the memory
    for k in np.flatnonzero(np.bincount(owner)):
        sel = owner == k
        h = half[sel]
        x = mid[sel, None] + h[:, None] * _GK_NODES
        out = funs[k](x)
        single = not isinstance(out, list)
        vals = np.empty((1 if single else len(out),) + x.shape)
        vals[:] = out
        del out
        ok = np.isfinite(vals).all(axis=(0, 2))
        vals[:, ~ok] = 0.0
        k15_k = h * (vals @ _GK_WK)
        err_k = np.abs(k15_k - h * (vals @ _GK_WG))
        if k15 is None:
            k15, err = np.empty((2, len(a), len(vals)))
        k15[sel], err[sel], good[sel] = k15_k.T, err_k.T, ok & np.isfinite(err_k).all(axis=0)
        del vals
    return k15, err, good, single


def _blocked(failed, pivot):
    """Gaps that failed or lie beyond a failed gap of their problem, seen
    from its origin; pivot[i] is the first gap right of gap i's origin."""
    seen = np.concatenate([[0], np.cumsum(failed)])  # failed gaps before gap i
    at = seen[pivot]
    return np.where(np.arange(len(failed)) >= pivot, seen[1:] > at, seen[:-1] < at)


def integrate_sweep(fun, knots, origin, tol: float = 1e-10):
    """Integrals of vectorized real functions from knots[origin] to every knot.

    fun, ascending knots and an origin index make one problem, or are
    equal-length sequences of problems.  fun returns values broadcastable to
    its argument, or a list of such arrays, one per component, as many for
    every problem.  The open gaps of all problems bisect in one G7/K15 batch
    per round, and a gap's components share its panels.  A gap converges
    when each component's summed error estimate is at most tol (absolute);
    until then it bisects the panels where a component's error exceeds
    tol / (panels in the gap).  It fails when it would need more than
    MAX_PANELS panels, its bisection underflows, or a component is
    non-finite on it; the knots of its problem beyond it, seen from that
    problem's origin, are then unreachable and leave the batch.  A pole in a
    gap fails it so only after some 16 to 20 rounds of bisection toward it,
    mostly by the panel budget; pole_gaps finds it without quadrature.

    Returns (F, reachable), or a list of them for a sequence of problems.
    F[..., i], with a leading component axis for a list, is the integral
    from knots[origin] to knots[i], summed gap by gap outward from the
    origin, and NaN where reachable[i] is False.
    """
    funs, knots, origins = ([fun], [knots], [origin]) if callable(fun) else (fun, knots, origin)
    knots = [np.asarray(k, float) for k in knots]
    sizes = [len(k) - 1 for k in knots]
    owner = np.repeat(np.arange(len(knots)), sizes)
    first = np.cumsum([0, *sizes])  # first gap of each problem
    pivot = (first[:-1] + np.asarray(origins, int))[owner]
    n_gaps = len(owner)
    gap_val, single = np.zeros((n_gaps, 1)), True  # until an integrand is called
    failed, open_ = np.zeros(n_gaps, bool), np.ones(n_gaps, bool)
    # leaves of the open gaps: gap index, a, b, K15 values, error estimates
    leaves = None
    new = (np.arange(n_gaps), np.concatenate([k[:-1] for k in knots]), np.concatenate([k[1:] for k in knots]))
    while new[0].size:
        val, err, good, single = _gk_panels(funs, owner[new[0]], new[1], new[2])
        failed[new[0][~good]] = True
        new += (val, err)
        if leaves is None:
            leaves, gap_val = new, np.zeros((n_gaps, val.shape[1]))
        else:
            leaves = tuple(map(np.concatenate, zip(leaves, new)))
        gap, a, b, val, err = leaves
        # per-gap sums of every component: one bincount over (gap, component)
        flat = (gap[:, None] * val.shape[1] + np.arange(val.shape[1])).ravel()
        count = np.bincount(gap, minlength=n_gaps)
        err_sum = np.bincount(flat, err.ravel(), gap_val.size).reshape(gap_val.shape)
        done = open_ & ~failed & (err_sum <= tol).all(axis=1)
        gap_val[done] = np.bincount(flat, val.ravel(), gap_val.size).reshape(gap_val.shape)[done]
        open_ &= ~done
        split = open_[gap] & (err > (tol / count[gap])[:, None]).any(axis=1)
        mid = 0.5 * (a + b)
        failed[gap[split & ((mid == a) | (mid == b))]] = True
        failed |= open_ & (count + np.bincount(gap[split], minlength=n_gaps) > MAX_PANELS)
        if failed.any():
            open_ &= ~_blocked(failed, pivot)
        split &= open_[gap]
        keep = open_[gap] & ~split
        leaves = tuple(x[keep] for x in leaves)
        g, lo, mi, hi = gap[split], a[split], mid[split], b[split]
        new = (np.concatenate([g, g]), np.concatenate([lo, mi]), np.concatenate([mi, hi]))
    # a gap still open split nothing: its error sum exceeds tol by rounding only
    reach_gap = ~_blocked(failed | open_, pivot)
    out = []
    for o, lo, hi in zip(origins, first[:-1], first[1:]):
        vals, reach = gap_val[lo:hi], reach_gap[lo:hi]
        reachable = np.concatenate([reach[:o], [True], reach[o:]])
        values = np.concatenate([-np.cumsum(vals[:o][::-1], axis=0)[::-1], np.zeros((1, vals.shape[1])),
                                 np.cumsum(vals[o:], axis=0)])
        values[~reachable] = np.nan
        out.append((values[:, 0] if single else values.T, reachable))
    return out[0] if callable(fun) else out


# halvings that locate a denominator's sign change, and the ratio r of the two
# probe distances delta1 = r delta2 at which a located zero is tested
_LOCATE_STEPS = 30
_PROBE_RATIO = 16.0


def _denominators(e):
    """Every divisor and every base of a negative power in e."""
    if isinstance(e, (Const, Var)):
        return set()
    if isinstance(e, Pow):
        return ({e.base} if e.n < 0 else set()) | _denominators(e.base)
    kids = (e.a, e.b) if isinstance(e, _Binary) else (e.a,)
    return ({e.b} if isinstance(e, Div) else set()).union(*map(_denominators, kids))


def _factors(d):
    """The non-constant factors of d through *, unary -, numerators and positive
    powers, so (z - c)^2 gives z - c.  exp never vanishes, and a negative power
    only at its base's poles, found on their own."""
    if isinstance(d, Mul):
        return _factors(d.a) | _factors(d.b)
    if isinstance(d, (Neg, Div)) or isinstance(d, Pow) and d.n > 0:
        return _factors(d.base if isinstance(d, Pow) else d.a)
    return {d} if contains_var(d) and not isinstance(d, (Pow, Exp)) else set()


def pole_gaps(exprs, knots, side):
    """Which gaps between the ascending knots hold a pole of exprs' null
    components on side: a zero of a denominator factor (a sign change between
    knots, bisected, or a zero on a knot, for both gaps next to it, where a
    zero within NULL_EPS max(1, |knot|) of a knot counts as on it) where
    max |expr| grows by more than r^(3/4) from delta1, half the distance to
    the nearer knot, to delta1 / r.  A pole of order 1 or more grows by r at
    least, a square-root branch point by r^(1/2), a removable zero not at
    all; a NaN probe marks none.
    """
    n_gaps = len(knots) - 1
    out, cands = np.zeros(n_gaps, bool), []
    with np.errstate(all="ignore"):
        for fac in {f for e in exprs for d in _denominators(e) for f in _factors(d)}:
            sign = np.sign(fac.eval_null(knots, side))
            # a zero within NULL_EPS max(1, |knot|) of a knot counts as on it
            d = NULL_EPS * np.maximum(1.0, np.abs(knots))
            on = (sign == 0) | (np.sign(fac.eval_null(knots - d, side)) * np.sign(fac.eval_null(knots + d, side)) < 0)
            i, k = np.flatnonzero(sign[:-1] * sign[1:] < 0), np.flatnonzero(on)
            if not (i.size or k.size):
                continue
            a, b = knots[i], knots[i + 1]
            for _ in range(_LOCATE_STEPS if i.size else 0):
                mid = 0.5 * (a + b)
                s = np.sign(fac.eval_null(mid, side))
                a, b = np.where(s != -sign[i], mid, a), np.where(s != sign[i], mid, b)
            # the knot indices around each zero, and the zero
            cands.append((np.r_[i, np.maximum(k - 1, 0)], np.r_[i + 1, np.minimum(k + 1, n_gaps)],
                          np.r_[0.5 * (a + b), knots[k]]))
        if not cands:
            return out
        lo, hi, c = map(np.concatenate, zip(*cands))
        below, above = c - knots[lo], knots[hi] - c
        d1 = 0.5 * np.minimum(np.where(below > 0, below, np.inf), np.where(above > 0, above, np.inf))
        t = c + np.array([[-1.0], [1.0], [-1.0 / _PROBE_RATIO], [1.0 / _PROBE_RATIO]]) * d1
        amp = np.max([np.abs(e.eval_null(t, side)) for e in exprs], axis=0)
        amp = np.where([below > 0, above > 0] * 2, amp, 0.0).reshape(2, 2, -1).max(axis=1)
    pole = amp[1] > _PROBE_RATIO**0.75 * amp[0]  # False where a probe is NaN
    out[lo[pole]] = out[hi[pole] - 1] = True
    return out
