"""Truncated bivariate Taylor arithmetic in (u, ux), degree 3.

The rules by which expr.Program runs its straight-line code on jets
(Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13).
A jet holds the Taylor coefficients of degree <= 3 of a value at each of
n points: row k is d^i/du^i d^j/dux^j / (i! j!), (i, j) = JET[k].  A
register keeps only the rows of its structurally nonzero coefficients,
in JET order, as a (rows, n) array (n = 1 for a constant); its support
lists them.  compile_code reads every support off a program once and
writes the program's Taylor interpretation as four flat arrays (Code);
run interprets them in one loop.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

JET = tuple((n - j, j) for n in range(4) for j in range(n + 1))
JET_INDEX = {ij: k for k, ij in enumerate(JET)}
VAR_SUPPORT = {"u": (0, JET_INDEX[1, 0]), "ux": (0, JET_INDEX[0, 1])}
_FACTORIALS = (1.0, 1.0, 2.0, 6.0)

# opcodes: a + b; the truncated Cauchy product a * b; a's value times b; a
# times b's value; a product with a side of no rows; a / a, its value
# only (1, and NaN where a is 0); a ** p by operator.pow and by np.power;
# FN + k, the k-th function of FN_UFUNCS
ADD, MUL, SCALE_B, SCALE_A, EMPTY, UNIT, POW, POWER, FN = range(9)


class Code(NamedTuple):
    """A program's Taylor code, one row of steps per step of its straight-line code.

    A step's row is (opcode, out slot, a slot, b slot or -1, rows of the
    result, derivative order, powers of delta, whether a has a value row,
    first segment).  Its index lists are consecutive segments of index,
    segment s being index[bounds[s]:bounds[s + 1]]: for ADD, a's and b's
    rows in the result; for MUL, the a rows and b rows of every product
    pair and the reduceat starts; for a power or function, four per power
    of delta (the a rows, b rows and starts that make it from the one
    below, empty for the first, then its rows in the result).  exponents
    holds p for a power step.
    """

    steps: np.ndarray
    bounds: np.ndarray
    index: np.ndarray
    exponents: np.ndarray


def const_jet(v) -> np.ndarray:
    """A constant: its value, or no row for 0."""
    return np.full((1, 1), v) if v else np.zeros((0, 1))


def var_jet(v, name: str) -> np.ndarray:
    """u and ux: the value and the first-order row 1; any other variable or parameter: the value."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return np.stack([v, np.ones_like(v)]) if name in VAR_SUPPORT else v[None, :]


def _cauchy(sa: tuple, sb: tuple) -> tuple:
    """Support, a rows, b rows and output starts of the truncated product of two jets.

    Only the pairs of structurally nonzero coefficients enter, so no
    structural zero multiplies an inf or a NaN.
    """
    pairs = sorted(
        (JET_INDEX[i1 + i2, j1 + j2], ra, rb)
        for ra, ka in enumerate(sa) for rb, kb in enumerate(sb)
        for (i1, j1), (i2, j2) in [(JET[ka], JET[kb])] if i1 + i2 + j1 + j2 <= 3
    )
    support = tuple(sorted({k for k, _, _ in pairs}))
    starts = [next(n for n, (k, _, _) in enumerate(pairs) if k == out) for out in support]
    return support, [ra for _, ra, _ in pairs], [rb for _, _, rb in pairs], starts


def compile_code(init: list, loads: list, code: list) -> tuple:
    """The Taylor code of a Program's init, loads and code, and the support of every slot.

    A constant's support is its value, or nothing for 0; u and ux add
    their first-order row.  phi(a) for a power or function is
    sum_{k <= order} phi^(k)(a0) * delta^k / k!, delta = a - a0, with
    delta^2 and delta^3 the truncated products of delta with delta and
    delta^2; a non-negative integer power p has no derivative above order p.
    """
    support = [None if v is None else ((0,) if v else ()) for v in init]
    for s, name, _ in loads:
        support[s] = VAR_SUPPORT.get(name, (0,))
    ops = {operator.add: ADD, operator.mul: MUL, operator.truediv: UNIT, operator.pow: POW, np.power: POWER}
    ops.update((f, FN + k) for k, f in enumerate(FN_UFUNCS.values()))
    steps, segments, exponents = [], [], []
    for function, out, a, b in code:
        sa, op, order, powers, has_value, p, parts = support[a], ops[function], 0, 0, 0, 0.0, []
        if op == ADD:
            su = tuple(sorted(set(sa) | set(support[b])))
            parts = [[su.index(k) for k in s] for s in (sa, support[b])]
        elif op == MUL:
            sb = support[b]
            if not sa or not sb:
                op, su = EMPTY, ()
            elif sa == (0,) or sb == (0,):  # a value alone scales the other jet
                op, su = (SCALE_B, sb) if sa == (0,) else (SCALE_A, sa)
            else:
                su, *parts = _cauchy(sa, sb)
        elif op == UNIT:  # only b / b, the mask of a negative power
            su = (0,)
        else:
            if op == POW or op == POWER:
                p = float(init[b])
                order = min(3, int(p)) if op == POW and p >= 0 else 3
            else:
                order = 3
            has_value = bool(sa) and sa[0] == 0
            sd = sa[1:] if has_value else sa
            deltas = [(sd, [[], [], []])]
            for _ in range(order - 1):
                s, *product = _cauchy(deltas[-1][0], sd)
                deltas.append((s, product))
            deltas = [(s, product) for s, product in deltas[:order] if s]
            su = tuple(sorted({0}.union(*(s for s, _ in deltas))))
            parts = [part for s, product in deltas for part in product + [[su.index(k) for k in s]]]
            powers = len(deltas)
        support[out] = su
        steps.append((op, out, a, -1 if b is None else b, len(su), order, powers, has_value, len(segments)))
        segments += parts
        exponents.append(p)
    tables = Code(np.array(steps, dtype=np.intp), np.cumsum([0] + [len(s) for s in segments], dtype=np.intp),
                  np.array([i for s in segments for i in s], dtype=np.intp), np.array(exponents))
    return tables, support


def run(code: Code, vals: list, outputs: list, supports: list) -> list:
    """Run code on the jets vals (constants and loads set), and sum each output's terms into one (10, n) jet.

    Each step makes the numpy calls of the Taylor rule of its operation:
    + and * by truncated Taylor arithmetic, powers and functions by their
    derivatives at the value.
    """
    index, bounds = code.index, code.bounds.tolist()

    def parts(at: int, n: int) -> list:
        return [index[bounds[s]:bounds[s + 1]] for s in range(at, at + n)]

    with np.errstate(all="ignore"):
        for (op, out, a, b, rows, order, powers, has_value, at), p in zip(code.steps.tolist(), code.exponents.tolist()):
            x = vals[a]
            if op == ADD:
                y = vals[b]
                r = np.zeros((rows, max(x.shape[1], y.shape[1])))
                pa, pb = parts(at, 2)
                r[pa] = x
                r[pb] += y
            elif op == MUL:
                ia, ib, starts = parts(at, 3)
                r = np.add.reduceat(x[ia] * vals[b][ib], starts, axis=0)
            elif op == SCALE_B:
                r = x[0] * vals[b]
            elif op == SCALE_A:
                r = x * vals[b][0]
            elif op == EMPTY:
                r = np.zeros((0, 1))
            elif op == UNIT:
                r = x[:1] / x[:1]
            else:
                a0 = x[0] if has_value else np.zeros(x.shape[1])
                if op >= FN:
                    name = FN_NAMES[op - FN]
                    phis = FN_DERIVATIVES[name](a0, FN_UFUNCS[name](a0))
                else:  # a0^p, p*a0^(p-1), p*(p-1)*a0^(p-2), ... up to order
                    power, phis, c = operator.pow if op == POW else np.power, [], 1.0
                    for k in range(order + 1):
                        phis.append(c * power(a0, p - k))
                        c *= p - k
                r = np.zeros((rows, x.shape[1]))
                r[0] = phis[0]
                d = dk = x[1:] if has_value else x
                for k in range(1, powers + 1):
                    ia, ib, starts, at_rows = parts(at + 4 * (k - 1), 4)
                    if k > 1:
                        dk = np.add.reduceat(dk[ia] * d[ib], starts, axis=0)
                    r[at_rows] += (phis[k] / _FACTORIALS[k]) * dk
            vals[out] = r
    width = max([1] + [vals[s].shape[1] for outs in outputs for s in outs])
    jets = []
    for outs, sups in zip(outputs, supports):
        total = np.zeros((len(JET), width))
        for s, support in zip(outs, sups):
            total[list(support)] += vals[s]
        jets.append(total)
    return jets


def _ln(a, value):
    r = 1.0 / a
    return [value, r, -r * r, 2.0 * r * r * r]


def _sqrt(a, value):
    s1 = 0.5 / value
    s2 = -0.5 * s1 / a
    return [value, s1, s2, -1.5 * s2 / a]


def _arctanh(a, value):
    r = 1.0 / (1.0 - a * a)
    return [value, r, 2.0 * a * r * r, (2.0 + 6.0 * a * a) * r * r * r]


# the evaluator's ufunc of each function: its value on the domain, NaN off it
FN_UFUNCS = {
    "exp": np.exp,
    "ln": lambda x: np.log(np.where(x > 0, x, np.nan)),
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "arctanh": lambda x: np.arctanh(np.where(np.abs(x) < 1, x, np.nan)),
}
FN_NAMES = tuple(FN_UFUNCS)

# (a0, phi(a0)) -> phi and its first three derivatives at a0.  The value is
# the evaluator's, NaN off the domain; the derivatives of ln and arctanh are
# the rational functions their expression trees give, finite off it
FN_DERIVATIVES = {
    "exp": lambda a, value: [value] * 4,
    "ln": _ln,
    "sqrt": _sqrt,
    "sin": lambda a, value: [value, np.cos(a), -value, -np.cos(a)],
    "cos": lambda a, value: [value, -np.sin(a), -value, np.sin(a)],
    "arctanh": _arctanh,
}
