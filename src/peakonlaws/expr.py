"""Jet-space symbolic kernel.

Expression trees over the jet coordinates of the peakon equation class
m_t + f(u,ux)*m + (g(u,ux)*m)_x = 0,  m = u - u_xx.

Canonical coordinates are {x, t, u, ux, m, mx, mxx, ...} plus the
first-order-in-t variables {ut, utx, mt, mtx, mtxx, ...}; u_xx and higher
x-derivatives of u are always eliminated through u_xx = u - m.  The pure
u-jet representation (u, ux, uxx, ... and ut, utx, ...) is reachable via
to_u_jet / to_m_jet; the spatial Euler operators do not use it, they work
in the canonical chart.

There is one evaluator: a Program compiles a sequence of expressions, once,
into one straight-line program that gives the values of each one's
top-level terms on floats or numpy arrays alike, NaN wherever a power or
function leaves its domain.  compile_terms is its view for one expression;
evaluate and evaluate_with_scale sum those terms with fsum.  The solver
runs f and g as one program, and the sampler the expressions of one call
as one program.  Program.taylor runs the same straight-line code on
truncated bivariate Taylor jets in (u, ux) of degree 3, and gives every
partial derivative up to order 3 of each expression at once, with the
structurally zero ones exactly 0.  There is one sampler: sample draws
seeded jet points shared by a sequence of expressions (or rows of a
block evaluator) and judges the candidates a block at a time;
sample_points is its view for one expression.  The candidates depend on
the seed, the bounds and the number of symbols only, so each such stream
is drawn once per process and kept, read-only, for the calls after it
(a few streams at most).  singular_loci reads the poles and branch
points off the tree, for the sampler and the solver; a Program built
with_loci reads them off the walk that compiles it.

Trees share subtrees freely, so the kernel works once per distinct node.
Each node computes its hash once, when it is built, and == compares the
fields only of nodes whose hashes agree.  Every traversal (Program, the
derivatives d_x, d_t, diff and euler_u, substitute, jet_vars,
param_names, poly_normal_forms) visits each distinct node once per call,
and a Program computes each distinct node once per call: a subtree shared
by several parents is compiled, evaluated, derived, expanded or rebuilt
once.  Nodes hold their fields and hash only; a batch API (Program,
sample, poly_normal_forms) shares its work across the expressions of one
call, and nothing is kept between calls but the sampler's candidate
streams and a bounded table of monomial products.  add and mul keep the
terms and factors they do not merge as they came, so canonical input
comes back as the very nodes it was built of, and mul regroups what it
rebuilds until nothing merges.

The exact normal forms hold each coefficient as a dyadic rational n*2**e,
a pair of ints with n odd (module poly, which holds their arithmetic and
the table of monomial products): every float, integer exponent and
derivative factor is dyadic, and so are their sums and products, so the
expansion needs no gcd.  A constant to a negative power that is not
dyadic has no normal form, and is sampled.  Fraction stays for exponents.

Partial is a placeholder for a partial derivative of an unknown function
of (u, ux).  The derivatives and poly_normal_form know it, so euler_u
builds a determining condition once for a generic f, whose normal form
reads off each placeholder's weight.  The evaluator, the printer and the
parser reject it.

Everything here is immutable and side-effect free, the caches of
candidate streams and monomial products aside, which change no result;
randomized zero testing takes an explicit SamplingPolicy carrying its own
seed.  is_zero tries the polynomial normal form first, and vote is its
verdict rule on sampled values.
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import taylor
from .poly import _UNIT_COEFF, _accumulate, _dyadic, _pmul, _PolyT
from .taylor import JET

__all__ = [
    "ExprError",
    "ParseError",
    "SingularSamplingError",
    "JetVar",
    "Expr",
    "Const",
    "Param",
    "Var",
    "Partial",
    "Add",
    "Mul",
    "Pow",
    "Fn",
    "add",
    "mul",
    "sub",
    "div",
    "neg",
    "pow_",
    "fn",
    "const",
    "var",
    "parse",
    "to_source",
    "Program",
    "JET",
    "compile_terms",
    "evaluate",
    "evaluate_with_scale",
    "jet_vars",
    "param_names",
    "d_x",
    "d_t",
    "to_u_jet",
    "to_m_jet",
    "diff",
    "euler_u",
    "euler_ut",
    "poly_normal_form",
    "poly_normal_forms",
    "SamplingPolicy",
    "ZeroVerdict",
    "is_zero",
    "Locus",
    "singular_loci",
    "Samples",
    "sample",
    "sample_points",
    "vote",
]

# hard caps: all computations in this problem class live within
# 4 x-derivatives of m and a single t-derivative
MAX_M_XORDER = 4
MAX_UJET_XORDER = 12

FN_NAMES = ("exp", "ln", "sqrt", "sin", "cos", "arctanh")


class ExprError(ValueError):
    """Invalid expression construction or operation."""


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SingularSamplingError(RuntimeError):
    """Too few of the attempted sample points were admissible: finite, and delta away from every singular locus."""


# ---------------------------------------------------------------------------
# jet variables


@dataclass(frozen=True, order=True)
class JetVar:
    """A jet coordinate: base symbol with x- and t-derivative counts."""

    base: str  # "u" | "m" | "x" | "t"
    dx: int = 0
    dt: int = 0

    def __post_init__(self):
        if self.base not in ("u", "m", "x", "t"):
            raise ExprError(f"unknown jet base {self.base!r}")
        if self.base in ("x", "t") and (self.dx or self.dt):
            raise ExprError("independent variables carry no derivative index")
        if self.dt > 1:
            raise ExprError(f"t-derivative order capped at 1: {self.name}")
        if self.base == "m" and self.dx > MAX_M_XORDER:
            raise ExprError(f"m-derivative order capped at {MAX_M_XORDER}: {self.name}")
        if self.base == "u" and self.dx > MAX_UJET_XORDER:
            raise ExprError(f"u-jet order cap exceeded: {self.name}")

    @property
    def name(self) -> str:
        return self.base + "t" * self.dt + "x" * self.dx

    @property
    def is_canonical(self) -> bool:
        """True if the variable belongs to the canonical m-jet chart."""
        if self.base in ("x", "t"):
            return True
        if self.base == "u":
            return self.dx <= 1
        return True

    @staticmethod
    def from_name(name: str) -> "JetVar":
        base, rest = name[0], name[1:]
        dt = 0
        if rest.startswith("t"):
            dt, rest = 1, rest[1:]
        dx = len(rest)
        if rest != "x" * dx:
            raise ExprError(f"not a jet variable name: {name!r}")
        return JetVar(base, dx, dt)


X = JetVar("x")
T = JetVar("t")
U = JetVar("u")
UX = JetVar("u", 1)
UT = JetVar("u", 0, 1)
UTX = JetVar("u", 1, 1)
M = JetVar("m")
MT = JetVar("m", 0, 1)

# identifiers accepted by the parser (canonical chart only)
_PARSE_VARS = {
    v.name: v
    for v in (
        X, T, U, UX, UT, UTX,
        *(JetVar("m", k) for k in range(MAX_M_XORDER + 1)),
        *(JetVar("m", k, 1) for k in range(MAX_M_XORDER + 1)),
    )
}


# ---------------------------------------------------------------------------
# expression nodes


@dataclass(frozen=True, eq=False)
class Expr:
    """A node of an immutable expression tree.

    Nodes compare and hash by their fields, as a frozen dataclass does, but
    each node hashes its fields once, when it is built (its children have
    done so before it), and == returns at once on identity or on unequal
    hashes, comparing the fields only when the hashes agree.
    """

    def __post_init__(self):
        # until now the instance dict holds the fields alone, in order
        object.__setattr__(self, "_hash", hash(tuple(self.__dict__.values())))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._fields() == other._fields()

    def __reduce__(self):
        # rebuild from the fields: a string's hash, and with it the cached
        # one, differs between processes
        return self.__class__, self._fields()

    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __pow__(self, other):
        return pow_(self, other)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ExprError("non-finite constant")
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class Param(Expr):
    name: str


@dataclass(frozen=True, eq=False)
class Var(Expr):
    v: JetVar


@dataclass(frozen=True, eq=False)
class Partial(Expr):
    """Placeholder for the partial d^i/du^i d^j/dux^j of an unknown function of (u, ux).

    of names the function ("f" or "g").  The derivatives know it through
    the chain rule, D(F_ij) = D(u)*F_(i+1)j + D(ux)*F_i(j+1), and
    poly_normal_form as the symbol F_ij; it builds templates only, and the
    evaluator, the printer and the parser reject it.
    """

    of: str
    i: int = 0
    j: int = 0

    @property
    def name(self) -> str:
        return f"{self.of}_{self.i}{self.j}"


@dataclass(frozen=True, eq=False)
class Add(Expr):
    terms: tuple


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    factors: tuple


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    base: Expr
    exp: Fraction

    def __post_init__(self):
        if not isinstance(self.exp, Fraction):
            object.__setattr__(self, "exp", Fraction(self.exp))
        if self.exp.denominator == 0:  # pragma: no cover - Fraction forbids this
            raise ExprError("zero-denominator exponent")
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class Fn(Expr):
    name: str
    arg: Expr

    def __post_init__(self):
        if self.name not in FN_NAMES:
            raise ExprError(f"unknown function {self.name!r}")
        super().__post_init__()


ZERO = Const(0.0)
ONE = Const(1.0)
_UNIT = Fraction(1)  # the exponent of a factor that is not a Pow


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, Fraction)):
        return Const(float(x))
    raise ExprError(f"cannot interpret {x!r} as an expression")


def const(v) -> Const:
    return Const(float(v))


def var(name_or_jv) -> Var:
    if isinstance(name_or_jv, JetVar):
        return Var(name_or_jv)
    return Var(JetVar.from_name(name_or_jv))


def _coeff_key(t: Expr) -> tuple[float, Expr]:
    if isinstance(t, Mul) and isinstance(t.factors[0], Const):
        rest = t.factors[1:]
        return t.factors[0].value, (rest[0] if len(rest) == 1 else Mul(rest))
    return 1.0, t


def _kept(f: Expr) -> bool:
    """Whether mul keeps f as it came: pow_(f.base, f.exp) gives back a Pow f, true of any other f."""
    if not isinstance(f, Pow):
        return True
    e, b = f.exp, f.base
    if e.denominator == 1 and (e.numerator in (0, 1) or isinstance(b, Pow) and b.exp.denominator == 1):
        return False
    return not isinstance(b, Const)


def _kept_term(t: Expr) -> bool:
    """Whether mul(Const(k), key), (k, key) = _coeff_key(t), gives back t: a product as mul builds it."""
    if not isinstance(t, Mul):
        return _kept(t)
    fs = t.factors
    if isinstance(fs[0], Const):
        if fs[0].value == 1.0 or len(fs) == 2 and isinstance(fs[1], Add):
            return False
        fs = fs[1:]
    if len(t.factors) < 2:
        return False
    bases = set()
    for f in fs:
        if isinstance(f, (Const, Mul)) or not _kept(f):
            return False
        bases.add(f.base if isinstance(f, Pow) else f)
    return len(bases) == len(fs)


# add and mul return a term or factor that they do not merge as it came,
# and build anew only what they merge
def add(*terms) -> Expr:
    flat: list[Expr] = []
    c = 0.0
    for t in terms:
        t = _as_expr(t)
        if isinstance(t, Add):
            flat.extend(t.terms)
        elif isinstance(t, Const):
            c += t.value
        else:
            flat.append(t)
    # collect like terms; keeps trees small and sums flat
    coeffs: dict[Expr, list] = {}  # key -> [coefficient, the term while it stands alone]
    for t in flat:
        if isinstance(t, Const):
            c += t.value
            continue
        k, key = _coeff_key(t)
        entry = coeffs.get(key)
        if entry is None:
            coeffs[key] = [0.0 + k, t]
        else:
            entry[0] += k
            entry[1] = None
    rest = [
        t if t is not None and _kept_term(t) else mul(Const(k), key)
        for key, (k, t) in coeffs.items()
        if k != 0.0
    ]
    if c != 0.0:
        rest.append(Const(c))
    if not rest:
        return ZERO
    if len(rest) == 1:
        return rest[0]
    return Add(tuple(rest))


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    c = 1.0
    for f in factors:
        f = _as_expr(f)
        if isinstance(f, Mul):
            flat.extend(f.factors)
        elif isinstance(f, Const):
            c *= f.value
        else:
            flat.append(f)
    # group repeated bases: ux*ux -> ux^2, b*b^-1 -> 1
    grouped: dict[Expr, list] = {}  # base -> [exponent, the factor while it stands alone]
    for f in flat:
        if isinstance(f, Const):
            c *= f.value
            continue
        b, e = (f.base, f.exp) if isinstance(f, Pow) else (f, _UNIT)
        entry = grouped.get(b)
        if entry is None:
            grouped[b] = [e, f]
        else:
            entry[0] += e
            entry[1] = None
    if c == 0.0:
        return ZERO
    # regroup until nothing merges: pow_ of a merged exponent may give a
    # constant, a product, or a power of another base ((u^2)^1 is u^2), and
    # a raw product may nest one; such a factor may merge in turn
    rest: list[Expr] = []
    regroup = False
    for b, (e, f) in grouped.items():
        if f is not None and _kept(f):
            rest.append(f)
            regroup = regroup or isinstance(f, Mul)
        elif e != 0:
            f = b if e is _UNIT else pow_(b, e)
            if not (isinstance(f, Const) and f.value == 1.0):
                rest.append(f)
                regroup = regroup or isinstance(f, (Const, Mul)) or (f.base if isinstance(f, Pow) else f) is not b
    if regroup:
        return mul(Const(c), *rest)
    if not rest:
        return Const(c)
    # distribute a plain constant over a sum; keeps sums flat so that the
    # additive cancellation scale in is_zero stays sharp
    if len(rest) == 1 and isinstance(rest[0], Add) and c != 1.0:
        return add(*(mul(Const(c), t) for t in rest[0].terms))
    if c != 1.0:
        rest.insert(0, Const(c))
    if len(rest) == 1:
        return rest[0]
    return Mul(tuple(rest))


def neg(e) -> Expr:
    return mul(Const(-1.0), _as_expr(e))


def sub(a, b) -> Expr:
    return add(_as_expr(a), neg(b))


def div(a, b) -> Expr:
    b = _as_expr(b)
    if isinstance(b, Const):
        if b.value == 0.0:
            raise ExprError("division by constant zero")
        return mul(_as_expr(a), Const(1.0 / b.value))
    return mul(_as_expr(a), pow_(b, -1))


def pow_(base, exp) -> Expr:
    base = _as_expr(base)
    if isinstance(exp, Expr):
        if not isinstance(exp, Const):
            raise ExprError("exponents must be rational constants")
        exp = exp.value
    if isinstance(exp, float):
        exp = Fraction(exp).limit_denominator(10**9)
    elif not isinstance(exp, Fraction):
        exp = Fraction(exp)
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    if isinstance(base, Const):
        v = evaluate(Pow(base, exp), {})
        if math.isfinite(v):
            return Const(v)
        raise ExprError(f"constant power {base.value}^{exp} is not finite")
    if isinstance(base, Pow) and base.exp.denominator == 1 and exp.denominator == 1:
        return pow_(base.base, base.exp * exp)
    return Pow(base, exp)


def fn(name: str, arg) -> Expr:
    return Fn(name, _as_expr(arg))


# ---------------------------------------------------------------------------
# structure queries


def _children(e: Expr) -> tuple:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Fn):
        return (e.arg,)
    return ()


def _nodes(roots: Sequence[Expr]) -> list:
    """(node, children) for the distinct nodes under roots, each after its children.

    Nodes are told apart by identity: a subtree shared by several parents
    is listed once, so every traversal built on this visits each distinct
    node once.
    """
    order, seen = [], set()

    def walk(n: Expr):
        seen.add(id(n))
        kids = _children(n)
        for c in kids:
            if id(c) not in seen:
                walk(c)
        order.append((n, kids))

    for r in roots:
        if id(r) not in seen:
            walk(r)
    return order


def _fold(roots: Sequence[Expr], visit: Callable[[Expr, list], object]) -> list:
    """visit(node, results at its children), once per distinct node; the results at roots."""
    done = {}
    for n, kids in _nodes(roots):
        done[id(n)] = visit(n, [done[id(c)] for c in kids])
    return [done[id(r)] for r in roots]


def jet_vars(e: Expr) -> set:
    return {n.v for n, _ in _nodes((e,)) if isinstance(n, Var)}


def param_names(e: Expr) -> set:
    return {n.name for n, _ in _nodes((e,)) if isinstance(n, Param)}


class Locus(NamedTuple):
    """Where expr vanishes (kind "zero"), or where |expr| = 1 ("unit")."""

    expr: Expr
    kind: str

    def distance(self, value):
        """How far a value of expr lies from the locus: |value|, or ||value| - 1|."""
        return np.abs(np.abs(value) - 1.0) if self.kind == "unit" else np.abs(value)

    def __str__(self):
        return f"||{to_source(self.expr)}| - 1|" if self.kind == "unit" else f"|{to_source(self.expr)}|"


def singular_loci(exprs: Sequence[Expr]) -> list:
    """The singular loci of exprs, each once, in the order a walk over their distinct nodes meets them.

    The base of a negative or fractional power and the argument of ln or
    sqrt are singular where they vanish, the argument of arctanh where its
    modulus is 1.  A locus free of variables and parameters is left out.
    """
    return _loci(_nodes(exprs))


def _loci(nodes: list) -> list:
    """singular_loci read off a _nodes list, in one pass over it."""
    varies = {}  # id(node) -> whether a variable or parameter lies under it
    loci = {}  # (expression, kind) -> whether it varies
    for n, kids in nodes:
        varies[id(n)] = isinstance(n, (Var, Param, Partial)) or any(varies[id(c)] for c in kids)
        if isinstance(n, Pow):
            if n.exp.numerator < 0 or n.exp.denominator != 1:
                loci[n.base, "zero"] = varies[id(n.base)]
        elif isinstance(n, Fn) and n.name in ("ln", "sqrt", "arctanh"):
            loci[n.arg, "unit" if n.name == "arctanh" else "zero"] = varies[id(n.arg)]
    return [Locus(e, kind) for (e, kind), v in loci.items() if v]


def _rebuild(e: Expr, leaf: Callable[[Expr], Expr]) -> Expr:
    """e with every leaf n replaced by leaf(n), rebuilt through add, mul, pow_, fn."""

    def visit(n: Expr, kids: list) -> Expr:
        if isinstance(n, Add):
            return add(*kids)
        if isinstance(n, Mul):
            return mul(*kids)
        if isinstance(n, Pow):
            return pow_(kids[0], n.exp)
        if isinstance(n, Fn):
            return fn(n.name, kids[0])
        return leaf(n)

    return _fold((e,), visit)[0]


def bind_params(e: Expr, values: Mapping[str, float]) -> Expr:
    """Substitute numeric values for parameters."""

    def leaf(n: Expr) -> Expr:
        if not isinstance(n, Param):
            return n
        if n.name not in values:
            raise ExprError(f"unbound parameter {n.name!r}")
        return Const(values[n.name])

    return _rebuild(e, leaf)


def substitute(e: Expr, table: Mapping[JetVar, Expr]) -> Expr:
    return _rebuild(e, lambda n: table.get(n.v, n) if isinstance(n, Var) else n)


# ---------------------------------------------------------------------------
# evaluation


# ufuncs on the domain of each function; NaN outside it
_FN_UFUNCS = {
    "exp": np.exp,
    "ln": lambda x: np.log(np.where(x > 0, x, np.nan)),
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "arctanh": lambda x: np.arctanh(np.where(np.abs(x) < 1, x, np.nan)),
}


class Program:
    """One straight-line evaluator for a sequence of expressions.

    Called with env (as for compile_terms), it returns one list per
    expression: the values of its top-level terms.  It is built once, in
    _nodes order, with one slot per distinct node: a step is keyed by its
    function and operand slots, so nodes of equal structure share a slot,
    and a node shared by several expressions is computed once per call.
    A sum or product of n parts is n - 1 binary steps left to right, each
    the operation a node by node evaluation would make, so the values are
    the same to the bit.  np.errstate is entered once per call, and only
    when a negative or fractional power or a function can leave its domain.
    With with_loci, a row per singular locus of exprs (singular_loci, read
    off the same walk) follows the rows of exprs; loci lists them.
    """

    def __init__(self, exprs: Sequence[Expr], *, with_loci: bool = False):
        tops = [e.terms if isinstance(e, Add) else (e,) for e in exprs]
        self._init: list = []  # slot values before a call: constants, else None
        self._loads: list = []  # (slot, name, kind) read from env
        self._code: list = []  # (function, out slot, arg slot, arg slot or None)
        self._guarded = False  # needs np.errstate: a pole, root or function
        numbered: dict = {}  # structural key -> slot
        slot_of: dict = {}  # id(node) -> slot

        def slot(key, value=None) -> int:
            if key not in numbered:
                numbered[key] = len(self._init)
                self._init.append(value)
            return numbered[key]

        def emit(function, a: int, b: int | None = None) -> int:
            """The slot of function(vals[a]) or function(vals[a], vals[b]), computed once."""
            key = (function, a, b)
            if key not in numbered:
                self._code.append((function, slot(key), a, b))
            return numbered[key]

        nodes = _nodes([t for ts in tops for t in ts])
        for n, kids in nodes:
            args = [slot_of[id(c)] for c in kids]
            if isinstance(n, Const):
                out = slot((Const, n.value.hex()), np.float64(n.value))
            elif isinstance(n, (Param, Var)):
                name, kind = (n.name, "parameter") if isinstance(n, Param) else (n.v.name, "variable")
                if (Var, name) not in numbered:
                    self._loads.append((slot((Var, name)), name, kind))
                out = numbered[(Var, name)]
            elif isinstance(n, (Add, Mul)):
                op = operator.add if isinstance(n, Add) else operator.mul
                out = args[0]
                for a in args[1:]:
                    out = emit(op, out, a)
            elif isinstance(n, Pow):
                p = float(n.exp)
                integer, negative = n.exp.denominator == 1, p < 0
                out = emit(operator.pow if integer else np.power, args[0], slot((Pow, p), p))
                if negative or not integer:
                    self._guarded = True
                if negative:
                    # b / b is 1 exactly, and NaN at b = 0; one per distinct base
                    out = emit(operator.mul, out, emit(operator.truediv, args[0], args[0]))
            elif isinstance(n, Fn):
                self._guarded = True
                out = emit(_FN_UFUNCS[n.name], args[0])
            else:
                raise ExprError(f"cannot evaluate {type(n).__name__}")
            slot_of[id(n)] = out
        # a locus is a node of this walk: its row reads slots computed already
        self.loci = _loci(nodes) if with_loci else []
        tops += [e.terms if isinstance(e, Add) else (e,) for e, _ in self.loci]
        self._outputs = [[slot_of[id(t)] for t in ts] for ts in tops]
        self._jets = None  # the Taylor interpretation, made on the first taylor call

    def __call__(self, env: Mapping) -> list:
        """The top-level term values of each expression at env."""
        vals = self._init.copy()
        for s, name, kind in self._loads:
            vals[s] = _env_value(env, name, kind)
        if self._guarded:
            with np.errstate(all="ignore"):
                self._run(vals)
        else:
            self._run(vals)
        return [[vals[s] for s in outs] for outs in self._outputs]

    def _run(self, vals: list):
        for function, out, a, b in self._code:
            vals[out] = function(vals[a]) if b is None else function(vals[a], vals[b])

    @property
    def supports(self) -> list:
        """Per expression, per top-level term: the JET indices of its structurally nonzero Taylor coefficients."""
        return self._taylor_code()[1]

    def taylor(self, env: Mapping) -> list:
        """The truncated Taylor jets in (u, ux) of each expression at env: one (10, n) array each.

        Row k holds d^i/du^i d^j/dux^j / (i! j!) of the expression at the
        points of env, (i, j) = JET[k].  The same straight-line code runs on
        jets (see _taylor_code): + and * by truncated Taylor arithmetic,
        powers and functions by their derivatives at the value.  A row that
        is structurally zero (as d/dux of exp(u)) is exactly 0.
        """
        code, supports = self._taylor_code()
        vals = [None if v is None else taylor.const_jet(v) for v in self._init]
        for s, name, kind in self._loads:
            vals[s] = taylor.var_jet(_env_value(env, name, kind), name)
        with np.errstate(all="ignore"):
            for rule, out, a, b in code:
                vals[out] = rule(vals[a], None if b is None else vals[b])
        width = max([1] + [vals[s].shape[1] for outs in self._outputs for s in outs])
        jets = []
        for outs, sups in zip(self._outputs, supports):
            total = np.zeros((len(JET), width))
            for s, support in zip(outs, sups):
                total[list(support)] += vals[s]
            jets.append(total)
        return jets

    def _taylor_code(self) -> tuple:
        """The code as Taylor rules, with the support of every slot; made once per Program.

        A slot holds the rows of its structurally nonzero coefficients only,
        in JET order; its support lists them.  A constant's support is its
        value, or nothing for 0; u and ux add their first-order row.
        """
        if self._jets is not None:
            return self._jets
        support = [None if v is None else ((0,) if v else ()) for v in self._init]
        for s, name, _ in self._loads:
            support[s] = taylor.VAR_SUPPORT.get(name, (0,))
        fn_of = {f: name for name, f in _FN_UFUNCS.items()}
        code = []
        for function, out, a, b in self._code:
            if function in (operator.add, operator.mul):
                rule, support[out] = (taylor.add if function is operator.add else taylor.mul)(support[a], support[b])
            elif function is operator.truediv:  # only b / b, the mask of a negative power
                rule, support[out] = taylor.unit(support[a])
            else:
                if function in (operator.pow, np.power):
                    p = float(self._init[b])
                    # a non-negative integer power p has no derivative above order p
                    order = min(3, int(p)) if function is operator.pow and p >= 0 else 3
                    derivatives = taylor.pow_derivatives(p, function, order)
                else:
                    rules = taylor.FN_DERIVATIVES[fn_of[function]]
                    order, derivatives = 3, lambda a0, f=function, rules=rules: rules(a0, f(a0))
                rule, support[out] = taylor.compose(support[a], order, derivatives)
            code.append((rule, out, a, b))
        supports = [[support[s] for s in outs] for outs in self._outputs]
        self._jets = (code, supports)
        return self._jets


def _env_value(env: Mapping, name: str, kind: str) -> np.ndarray:
    try:
        return np.asarray(env[name])
    except KeyError:
        raise ExprError(f"no value for {kind} {name!r}") from None


def compile_terms(e: Expr) -> Callable[[Mapping], list]:
    """The evaluator of e: a closure env -> list of its top-level term values.

    env maps variable and parameter names to floats or numpy arrays (all
    of one shape).  Sums and products combine left to right.  A domain
    violation (0 to a negative power, ln of x <= 0, sqrt of x < 0,
    arctanh of |x| >= 1) yields NaN, which propagates; nothing raises but
    a missing name, and an overflow gives inf without a warning.  The
    Program of [e], compiled anew on every call.
    """
    program = Program((e,))
    return np.errstate(all="ignore")(lambda env: program(env)[0])


def _fsum(terms) -> float:
    """math.fsum of terms; their plain float sum where fsum raises (inf - inf, overflow)."""
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):
        return sum(map(float, terms))


def evaluate(e: Expr, point: Mapping) -> float | np.ndarray:
    """Evaluate at a point mapping variable/parameter names to values.

    The top-level terms are summed with fsum.  Domain violations (log of a
    negative number, division by zero, ...) yield NaN rather than raising;
    is_zero re-samples such points.  Values may be 1-D arrays, one entry
    per point: then the result is the array of the fsums at each point.
    """
    terms = compile_terms(e)(point)
    shape = np.broadcast_shapes(*map(np.shape, point.values()), *map(np.shape, terms))
    if not shape:
        return _fsum(terms)
    columns = np.array([np.broadcast_to(t, shape) for t in terms])
    return np.array([_fsum(col) for col in columns.T])


def evaluate_with_scale(e: Expr, point: Mapping[str, float]) -> tuple[float, float]:
    """Value plus cancellation scale.

    The scale is max(1, |largest top-level additive term|); residuals in
    zero tests are judged relative to it so that massive cancellations do
    not masquerade as exact zeros.
    """
    vals = [float(v) for v in compile_terms(e)(point)]
    return _fsum(vals), max(1.0, *map(abs, vals))


# ---------------------------------------------------------------------------
# derivatives


def _derive(e: Expr, var_rule) -> Expr:
    """Chain-rule engine; var_rule maps a JetVar to its derivative Expr."""

    def visit(n: Expr, d: list) -> Expr:
        if isinstance(n, (Const, Param)):
            return ZERO
        if isinstance(n, Var):
            return var_rule(n.v)
        if isinstance(n, Partial):
            return add(mul(var_rule(U), Partial(n.of, n.i + 1, n.j)),
                       mul(var_rule(UX), Partial(n.of, n.i, n.j + 1)))
        if isinstance(n, Add):
            return add(*d)
        if isinstance(n, Mul):
            fs = n.factors
            return add(*(
                mul(*fs[:i], dfi, *fs[i + 1:])
                for i, dfi in enumerate(d)
                if not (isinstance(dfi, Const) and dfi.value == 0.0)
            ))
        if isinstance(n, Pow):
            db = d[0]
            if isinstance(db, Const) and db.value == 0.0:
                return ZERO
            return mul(Const(float(n.exp)), pow_(n.base, n.exp - 1), db)
        if isinstance(n, Fn):
            da = d[0]
            if isinstance(da, Const) and da.value == 0.0:
                return ZERO
            a = n.arg
            if n.name == "exp":
                return mul(n, da)
            if n.name == "ln":
                return div(da, a)
            if n.name == "sqrt":
                return div(da, mul(2, fn("sqrt", a)))
            if n.name == "sin":
                return mul(fn("cos", a), da)
            if n.name == "cos":
                return neg(mul(fn("sin", a), da))
            if n.name == "arctanh":
                return div(da, sub(1, mul(a, a)))
        raise ExprError(f"cannot differentiate {type(n).__name__}")  # pragma: no cover

    return _fold((e,), visit)[0]


def _dx_m_jet_rule(v: JetVar) -> Expr:
    if v.base == "x":
        return ONE
    if v.base == "t":
        return ZERO
    if v.base == "u":
        if v.dx == 0:
            return Var(JetVar("u", 1, v.dt))
        # u^(k+1) = u^(k-1) - m^(k-1), e.g. u_xx = u - m, u_txx = u_t - m_t;
        # from u_xxxx on, u^(k-1) is itself taken back into the chart
        dv = sub(Var(JetVar("u", v.dx - 1, v.dt)), Var(JetVar("m", v.dx - 1, v.dt)))
        return dv if v.dx <= 2 else to_m_jet(dv)
    return Var(JetVar("m", v.dx + 1, v.dt))


def d_x(e: Expr) -> Expr:
    """Total x-derivative in the canonical m-jet chart."""
    return _derive(e, _dx_m_jet_rule)


def _dt_rule(v: JetVar) -> Expr:
    if v.base == "x":
        return ZERO
    if v.base == "t":
        return ONE
    if v.dt >= 1:
        raise ExprError(f"t-derivative order cap: cannot apply d_t to {v.name}")
    return Var(JetVar(v.base, v.dx, 1))


def d_t(e: Expr) -> Expr:
    """Total t-derivative, off-shell (no substitution of the evolution equation)."""
    return _derive(e, _dt_rule)


def diff(e: Expr, v: JetVar | str) -> Expr:
    """Partial derivative with respect to a single jet variable."""
    target = v if isinstance(v, JetVar) else JetVar.from_name(v)

    def rule(w: JetVar) -> Expr:
        return ONE if w == target else ZERO

    return _derive(e, rule)


# ---------------------------------------------------------------------------
# chart conversions


def to_u_jet(e: Expr) -> Expr:
    """Replace every m-derivative by its u-jet expansion m^(k) = u^(k) - u^(k+2)."""
    table = {}
    for v in jet_vars(e):
        if v.base == "m":
            table[v] = sub(Var(JetVar("u", v.dx, v.dt)), Var(JetVar("u", v.dx + 2, v.dt)))
    return substitute(e, table) if table else e


def to_m_jet(e: Expr) -> Expr:
    """Eliminate u_xx and higher via u^(k) = u^(k-2) - m^(k-2), repeatedly."""
    while True:
        table = {}
        for v in jet_vars(e):
            if v.base == "u" and v.dx >= 2:
                table[v] = sub(Var(JetVar("u", v.dx - 2, v.dt)), Var(JetVar("m", v.dx - 2, v.dt)))
        if not table:
            return e
        e = substitute(e, table)


# ---------------------------------------------------------------------------
# spatial Euler operators


def _euler(e: Expr, base_dt: int) -> Expr:
    e = to_m_jet(e)
    kmax = max((v.dx for v in jet_vars(e) if v.base == "m" and v.dt == base_dt), default=-1)
    em = ZERO  # E_m e = sum_k (-D_x)^k de/dm^(k)
    for k in range(kmax + 1):
        term = diff(e, JetVar("m", k, base_dt))
        if isinstance(term, Const) and term.value == 0.0:
            continue
        for _ in range(k):
            term = d_x(term)
        em = add(em, term) if k % 2 == 0 else sub(em, term)
    return add(
        diff(e, JetVar("u", 0, base_dt)),
        neg(d_x(diff(e, JetVar("u", 1, base_dt)))),
        em,
        neg(d_x(d_x(em))),
    )


def euler_u(e: Expr) -> Expr:
    """Spatial Euler operator with respect to u: sum_k (-D_x)^k d/du^(k).

    Annihilates exactly the total x-derivatives among expressions of the
    jet variables.  Computed in the canonical m-jet chart, where the chain
    rule through m = u - u_xx gives E_u = d/du - D_x d/du_x + (1 - D_x^2) E_m
    with E_m = sum_k (-D_x)^k d/dm^(k); the result is canonical.
    """
    return _euler(e, 0)


def euler_ut(e: Expr) -> Expr:
    """Spatial Euler operator with respect to u_t."""
    return _euler(e, 1)


# ---------------------------------------------------------------------------
# exact polynomial normal form (used as a fast/exact zero test when available)


def poly_normal_forms(exprs: Sequence[Expr]) -> list:
    """The exact normal form of each of exprs (see poly_normal_form), on one memo.

    Each distinct node under exprs is expanded once per call, however many
    of exprs share it.  The forms may share dicts; callers never mutate them.
    """
    memo: dict = {}  # id(node) -> its normal form; shared, never mutated

    def nf(n: Expr) -> _PolyT | None:
        p = memo.get(id(n), memo)  # memo itself marks a node not yet expanded
        if p is memo:
            p = memo[id(n)] = _normal_form(n, nf)
        return p

    return [nf(e) for e in exprs]


def poly_normal_form(e: Expr) -> _PolyT | None:
    """Expand to an exact multivariate polynomial with dyadic coefficients.

    The result maps each monomial, a sorted tuple of (symbol, exponent)
    pairs, to its coefficient (n, e) = n * 2**e with n odd (poly._rational
    gives its Fraction); an empty dict is the zero polynomial.

    Returns None when the expression is not polynomial in the jet
    variables and parameters (negative/fractional powers of non-constant
    bases, elementary functions of non-constant arguments), or holds a
    constant to a negative power whose value is not dyadic.  Each distinct
    node is expanded once per call; the expansion stops at the first
    non-polynomial term it meets.  poly_normal_forms([e]) for one
    expression.
    """
    return poly_normal_forms([e])[0]


def _normal_form(e: Expr, nf: Callable[[Expr], _PolyT | None]) -> _PolyT | None:
    """poly_normal_form of e, with nf giving that of its children."""
    kind = type(e)
    if kind is Mul or kind is Add:
        parts = []
        for c in e.factors if kind is Mul else e.terms:
            p = nf(c)
            if p is None:
                return None
            parts.append(p)
        out = parts[0]
        if kind is Mul:
            for p in parts[1:]:
                out = _pmul(out, p)
            return out
        out = dict(out)  # the forms in memo are shared: sum into a copy
        for p in parts[1:]:
            for m, c in p.items():
                _accumulate(out, m, c)
        return out
    if kind is Var:
        return {((e.v.name, 1),): _UNIT_COEFF}
    if kind is Const:
        c = _dyadic(e.value)
        return {(): c} if c else {}
    if kind is Param or kind is Partial:
        return {((e.name, 1),): _UNIT_COEFF}
    if kind is Pow:
        p = nf(e.base)
        if p is None:
            return None
        if len(p) == 0:
            if e.exp > 0:
                return {}
            return None
        if e.exp.denominator != 1:
            return None
        k = e.exp.numerator
        if len(p) == 1 and () in p:
            # constant base: fold exactly when the power stays dyadic (k >= 0,
            # or a base of +-2**s); else None, and the sampler decides
            n, s = p[()]
            return {(): (n ** abs(k), s * k)} if k >= 0 or n in (1, -1) else None
        if k <= 0:
            return {(): _UNIT_COEFF} if k == 0 else None
        out = p
        for _ in range(k - 1):
            out = _pmul(out, p)
        return out
    if kind is Fn:
        return None
    raise ExprError(f"cannot expand {kind.__name__}")  # pragma: no cover


# ---------------------------------------------------------------------------
# randomized zero testing


@dataclass(frozen=True)
class SamplingPolicy:
    """How to sample jet points for the randomized zero test.

    Values are drawn from +/-[low, high].  A point is rejected where a
    singular locus of the sampled expressions (singular_loci) lies within
    delta, by Locus.distance, or where an expression fails to evaluate
    finitely.
    """

    n_points: int = 20
    low: float = 0.2
    high: float = 2.0
    delta: float = 0.1
    rel_tol: float = 1e-9
    seed: int = 42
    max_tries: int = 400

    def __post_init__(self):
        for name, least in (("n_points", 1), ("max_tries", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least:
                raise ExprError(f"{name} must be an integer >= {least}, got {v!r}")
        for name in ("rel_tol", "low", "high", "delta"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ExprError(f"{name} must be a finite number, got {v!r}")
        if self.rel_tol <= 0:
            raise ExprError("rel_tol must be positive")
        if not 0 < self.low < self.high:
            raise ExprError(f"need 0 < low < high, got low={self.low!r}, high={self.high!r}")
        if self.delta < 0:
            raise ExprError(f"delta must be >= 0, got {self.delta!r}")


@dataclass(frozen=True)
class ZeroVerdict:
    status: str  # "zero" | "nonzero" | "indeterminate"
    residual_max: float
    witness: dict | None = None
    exact: bool = False

    @property
    def is_zero(self) -> bool:
        return self.status == "zero"

    def __bool__(self) -> bool:
        return self.is_zero


_SIGNS = np.array([-1.0, 1.0])


# The candidate streams drawn so far, keyed by (seed, low, high, dim): the
# generator and its candidates in draw order, read-only.  A few keys at
# most, the least recently used dropped first.
_STREAMS: dict = {}
_STREAMS_KEPT = 16
_STREAMS_LOCK = threading.Lock()


def _candidates(policy: SamplingPolicy, dim: int, stop: int, budget: int) -> np.ndarray:
    """At least the first stop candidates of the seeded stream of policy over dim symbols (read-only).

    The stream is drawn once per process: a longer request extends it,
    by at least a doubling but never beyond budget.
    """
    key = (policy.seed, policy.low, policy.high, dim)
    with _STREAMS_LOCK:
        rng, pts = _STREAMS.pop(key, None) or (np.random.default_rng(policy.seed), np.empty((0, dim)))
        if len(pts) < stop:
            count = min(max(stop, 2 * len(pts)), budget) - len(pts)
            # operands evaluate left to right: uniform, then the signs, per candidate;
            # _SIGNS[integers(0, 2)] draws what choice([-1.0, 1.0]) draws, with less overhead
            new = np.array([
                rng.uniform(policy.low, policy.high, size=dim) * _SIGNS[rng.integers(0, 2, size=dim)]
                for _ in range(count)
            ]).reshape(count, dim)
            pts = np.concatenate([pts, new])
            pts.flags.writeable = False
        _STREAMS[key] = rng, pts
        while len(_STREAMS) > _STREAMS_KEPT:
            del _STREAMS[next(iter(_STREAMS))]
    return pts


class Samples(NamedTuple):
    """Admissible jet points shared by several expressions, in draw order."""

    names: list  # coordinate names: jet variables, then parameters
    points: np.ndarray  # (n_points, len(names))
    values: np.ndarray  # (rows, n_points): fsum of each row's terms (an expression's top-level terms)
    scales: np.ndarray  # (rows, n_points): max(1, |largest term|)


def sample(exprs, policy: SamplingPolicy, names: Sequence[str] = ()) -> Samples:
    """Draw the first n_points admissible points for every symbol of exprs.

    Candidates are read in order from the seeded stream (per candidate,
    uniform values, then random signs), so the points depend only on the
    seed, low, high and the number of symbols; the stream is drawn once
    per process and shared by every call with those four (_candidates).
    They are judged a block at a time: a candidate is admissible at least
    delta away from every singular locus (Locus.distance) where every
    term of every row evaluates finitely.  At most max_tries * n_points
    candidates are read.  exprs is either a sequence of expressions,
    compiled with their singular_loci (Program with_loci) as one Program
    once per call, each a row of its top-level terms; or a block evaluator, a
    callable (env, count) -> (rows, distances) over the coordinates names:
    one (terms, count) array per row, one array of distances per locus.
    Either is called once per block.
    """
    if callable(exprs):
        block, names = exprs, list(names)
    else:
        program = Program(exprs, with_loci=True)
        loci = program.loci
        names = []
        for kind in ("variable", "parameter"):
            names += sorted(name for _, name, k in program._loads if k == kind)

        def block(env, count):
            values = program(env)
            rows = [np.array([np.broadcast_to(v, (count,)) for v in ts]) for ts in values[:len(exprs)]]
            return rows, [locus.distance(reduce(operator.add, ts)) for locus, ts in zip(loci, values[len(exprs):])]

    n, dim, budget = policy.n_points, len(names), policy.max_tries * policy.n_points
    chosen, terms, found, tries = [], None, 0, 0
    while found < n:
        if tries >= budget:
            raise SingularSamplingError(
                "could not find admissible sample points "
                f"({found} of {n} after {tries} tries)"
            )
        count = min(n - found, budget - tries)
        tries += count
        pts = _candidates(policy, dim, tries, budget)[tries - count:tries]
        with np.errstate(all="ignore"):  # an overflow is inf, and rejects the candidate
            rows, distances = block(dict(zip(names, pts.T)), count)
        admissible = np.ones(count, dtype=bool)
        for d in distances:
            admissible &= ~(d < policy.delta)
        for v in rows:
            admissible &= np.isfinite(v).all(axis=0)
        take = np.flatnonzero(admissible)[: n - found]
        found += len(take)
        chosen.append(pts[take])
        terms = terms or [[] for _ in rows]
        for cols, v in zip(terms, rows):
            cols.append(v[:, take])
    rows = [np.concatenate(cols, axis=1) for cols in terms]  # (terms, n_points) per row
    values = np.array([[_fsum(col) for col in r.T.tolist()] for r in rows])
    scales = np.array([np.maximum(1.0, np.abs(r).max(axis=0)) for r in rows])
    return Samples(names, np.concatenate(chosen).reshape(n, dim), values, scales)


def sample_points(e: Expr, policy: SamplingPolicy) -> list[dict]:
    """sample([e], policy) as one dict per point, with __value__ and __scale__."""
    s = sample([e], policy)
    return [
        {**dict(zip(s.names, row)), "__value__": float(v), "__scale__": float(sc)}
        for row, v, sc in zip(s.points, s.values[0], s.scales[0])
    ]


def vote(samples: Samples, values: np.ndarray, scales: np.ndarray, rel_tol: float) -> ZeroVerdict:
    """The zero-test verdict of values, one per point of samples.

    A point votes "zero" when |value| <= rel_tol * scale.  All points must
    agree; a split vote is reported as indeterminate, never resolved
    silently.  residual_max is the largest |value| / scale, and the
    witness of a verdict other than zero is the last point attaining it,
    with its value and scale.
    """
    rel = np.abs(values) / scales
    votes_zero = int(np.count_nonzero(rel <= rel_tol))
    worst = len(rel) - 1 - int(np.argmax(rel[::-1]))
    res_max = float(rel[worst])
    if votes_zero == len(rel):
        return ZeroVerdict("zero", res_max, None)
    witness = dict(zip(samples.names, samples.points[worst]))
    witness["value"] = float(values[worst])
    witness["scale"] = float(scales[worst])
    return ZeroVerdict("nonzero" if votes_zero == 0 else "indeterminate", res_max, witness)


def is_zero(e: Expr, policy: SamplingPolicy | None = None) -> ZeroVerdict:
    """Randomized zero test with an exact fast path for polynomial input.

    A polynomial e whose normal form is empty is an exact zero.
    Otherwise e is sampled and each point votes (see vote), with scale the
    largest top-level additive term there (floored at 1).
    """
    policy = policy or SamplingPolicy()
    nf = poly_normal_form(e)
    if nf is not None and not nf:
        return ZeroVerdict("zero", 0.0, None, exact=True)
    s = sample([e], policy)
    return vote(s, s.values[0], s.scales[0], policy.rel_tol)


# ---------------------------------------------------------------------------
# parser


class _Lexer:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def _peek_char(self):
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def next_token(self) -> tuple[str, str, int]:
        while self._peek_char().isspace():
            self.pos += 1
        start = self.pos
        ch = self._peek_char()
        if not ch:
            return ("eof", "", start)
        if ch in "+-*/^()":
            self.pos += 1
            return (ch, ch, start)
        if ch.isdigit() or ch == ".":
            j = self.pos
            seen_dot = False
            while j < len(self.src) and (self.src[j].isdigit() or (self.src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or self.src[j] == "."
                j += 1
            if j < len(self.src) and self.src[j] in "eE":
                k = j + 1
                if k < len(self.src) and self.src[k] in "+-":
                    k += 1
                if k < len(self.src) and self.src[k].isdigit():
                    while k < len(self.src) and self.src[k].isdigit():
                        k += 1
                    j = k
            text = self.src[self.pos:j]
            self.pos = j
            return ("number", text, start)
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.src) and (self.src[j].isalnum() or self.src[j] == "_"):
                j += 1
            text = self.src[self.pos:j]
            self.pos = j
            return ("ident", text, start)
        raise ParseError(f"unexpected character {ch!r}", start)


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' signed_rational)?
    atom   := number | ident | func '(' expr ')' | '(' expr ')'
    """

    def __init__(self, src: str, params: frozenset):
        self.lex = _Lexer(src)
        self.params = params
        self.tok = self.lex.next_token()

    def _advance(self):
        self.tok = self.lex.next_token()

    def _expect(self, kind: str):
        if self.tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {self.tok[1]!r}", self.tok[2])
        t = self.tok
        self._advance()
        return t

    def parse(self) -> Expr:
        e = self.expr()
        if self.tok[0] != "eof":
            raise ParseError(f"unexpected trailing input {self.tok[1]!r}", self.tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.tok[0] in ("+", "-"):
            op = self.tok[0]
            self._advance()
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.tok[0] in ("*", "/"):
            op = self.tok[0]
            pos = self.tok[2]
            self._advance()
            rhs = self.factor()
            if op == "*":
                e = mul(e, rhs)
            else:
                if isinstance(rhs, Const) and rhs.value == 0.0:
                    raise ParseError("division by zero", pos)
                e = div(e, rhs)
        return e

    def factor(self) -> Expr:
        if self.tok[0] == "-":
            self._advance()
            return neg(self.factor())
        a = self.atom()
        if self.tok[0] == "^":
            self._advance()
            r = self.signed_rational()
            if isinstance(a, Const) and a.value == 0.0 and r < 0:
                raise ParseError("zero raised to a negative power", self.tok[2])
            a = pow_(a, r)
        return a

    def signed_rational(self) -> Fraction:
        if self.tok[0] == "number":
            text, pos = self.tok[1], self.tok[2]
            self._advance()
            if not text.lstrip("+-").isdigit():
                raise ParseError(f"malformed exponent {text!r}", pos)
            return Fraction(int(text))
        if self.tok[0] == "-":
            self._advance()
            return -self.signed_rational()
        if self.tok[0] == "(":
            self._advance()
            num = self._int()
            self._expect("/")
            den = self._int()
            if den == 0:
                raise ParseError("zero-denominator exponent", self.tok[2])
            self._expect(")")
            return Fraction(num, den)
        raise ParseError(f"malformed exponent near {self.tok[1]!r}", self.tok[2])

    def _int(self) -> int:
        sign = 1
        if self.tok[0] == "-":
            sign = -1
            self._advance()
        text, pos = self._expect("number")[1], self.tok[2]
        if not text.isdigit():
            raise ParseError(f"expected integer, found {text!r}", pos)
        return sign * int(text)

    def atom(self) -> Expr:
        kind, text, pos = self.tok
        if kind == "number":
            self._advance()
            try:
                return Const(float(text))
            except ValueError:
                raise ParseError(f"bad number literal {text!r}", pos) from None
        if kind == "(":
            self._advance()
            e = self.expr()
            self._expect(")")
            return e
        if kind == "ident":
            self._advance()
            if text in FN_NAMES:
                self._expect("(")
                arg = self.expr()
                self._expect(")")
                return fn(text, arg)
            if text in _PARSE_VARS:
                return Var(_PARSE_VARS[text])
            if text in self.params:
                return Param(text)
            raise ParseError(f"undeclared identifier {text!r}", pos)
        raise ParseError(f"expected an operand, found {text!r}", pos)


def parse(source: str, declared_params: Iterable[str] = ()) -> Expr:
    """Parse a source string into an Expr.

    Identifiers are the canonical jet variables (u, ux, m, mx, mxx, ut,
    utx, mt, mtx, mtxx, x, t) and any declared parameter names.
    """
    return _Parser(source, frozenset(declared_params)).parse()


# ---------------------------------------------------------------------------
# printer (emits the same grammar the parser accepts)


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(e: Expr, prec: int) -> str:
    # precedence levels: 0 sum, 1 product, 2 unary/power operand, 3 atom
    if isinstance(e, Const):
        s = _fmt_const(e.value)
        need = 2 if (e.value < 0 or "e" in s or "E" in s) else 3
        return f"({s})" if prec > need and e.value < 0 else s
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Var):
        return e.v.name
    if isinstance(e, Fn):
        return f"{e.name}({_print(e.arg, 0)})"
    if isinstance(e, Pow):
        b = _print(e.base, 3)
        if e.exp.denominator == 1:
            s = f"{b}^{e.exp.numerator}"
        else:
            s = f"{b}^({e.exp.numerator}/{e.exp.denominator})"
        return f"({s})" if prec > 2 else s
    if isinstance(e, Mul):
        num, den = [], []
        for f in e.factors:
            if isinstance(f, Pow) and f.exp < 0:
                den.append(pow_(f.base, -f.exp))
            else:
                num.append(f)
        lead = ""
        if num and isinstance(num[0], Const) and num[0].value == -1.0 and len(num) > 1:
            lead = "-"
            num = num[1:]
        if not num:
            num = [ONE]
        s = lead + "*".join(_print(f, 2) for f in num)
        for d in den:
            s += "/" + _print(d, 2)
        return f"({s})" if prec > 1 else s
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            txt = _print(t, 1)
            if i == 0:
                parts.append(txt)
            elif txt.startswith("-"):
                parts.append(" - " + txt[1:])
            else:
                parts.append(" + " + txt)
        s = "".join(parts)
        return f"({s})" if prec > 0 else s
    raise ExprError(f"cannot print {type(e).__name__}")  # pragma: no cover


def to_source(e: Expr) -> str:
    """Render to the expression grammar; parse(to_source(e)) evaluates identically."""
    return _print(e, 0)
