"""Truncated bivariate Taylor arithmetic in (u, ux), degree 3.

The rules by which expr.Program runs its straight-line code on jets
(Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13).
A jet holds the Taylor coefficients of degree <= 3 of a value at each of
n points: row k is d^i/du^i d^j/dux^j / (i! j!), (i, j) = JET[k].  A
register keeps only the rows of its structurally nonzero coefficients,
in JET order, as a (rows, n) array (n = 1 for a constant); its support
lists them.  Each rule is made once per program step from the supports
of its operands, and returns (function of the operand arrays, support).
"""

from __future__ import annotations

import numpy as np

JET = tuple((n - j, j) for n in range(4) for j in range(n + 1))
JET_INDEX = {ij: k for k, ij in enumerate(JET)}
VAR_SUPPORT = {"u": (0, JET_INDEX[1, 0]), "ux": (0, JET_INDEX[0, 1])}
_FACTORIALS = (1.0, 1.0, 2.0, 6.0)


def const_jet(v) -> np.ndarray:
    """A constant: its value, or no row for 0."""
    return np.full((1, 1), v) if v else np.zeros((0, 1))


def var_jet(v, name: str) -> np.ndarray:
    """u and ux: the value and the first-order row 1; any other variable or parameter: the value."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return np.stack([v, np.ones_like(v)]) if name in VAR_SUPPORT else v[None, :]


def add(sa: tuple, sb: tuple):
    """a + b: a constant adds to coefficient 0 only."""
    su = tuple(sorted(set(sa) | set(sb)))
    pa, pb = [su.index(k) for k in sa], [su.index(k) for k in sb]

    def rule(a, b):
        out = np.zeros((len(su), max(a.shape[1], b.shape[1])))
        out[pa] = a
        out[pb] += b
        return out

    return rule, su


def _cauchy(sa: tuple, sb: tuple) -> tuple:
    """Support, a rows, b rows and output starts of the truncated product of two jets."""
    pairs = sorted(
        (JET_INDEX[i1 + i2, j1 + j2], ra, rb)
        for ra, ka in enumerate(sa) for rb, kb in enumerate(sb)
        for (i1, j1), (i2, j2) in [(JET[ka], JET[kb])] if i1 + i2 + j1 + j2 <= 3
    )
    support = tuple(sorted({k for k, _, _ in pairs}))
    starts = [next(n for n, (k, _, _) in enumerate(pairs) if k == out) for out in support]
    return support, [ra for _, ra, _ in pairs], [rb for _, _, rb in pairs], starts


def mul(sa: tuple, sb: tuple):
    """a * b: the truncated Cauchy product, one gather and one reduceat.

    Only the pairs of structurally nonzero coefficients enter, so no
    structural zero multiplies an inf or a NaN.
    """
    if not sa or not sb:
        return (lambda a, b: np.zeros((0, 1))), ()
    if sa == (0,) or sb == (0,):  # a value alone scales the other jet
        return ((lambda a, b: a[0] * b) if sa == (0,) else (lambda a, b: a * b[0])), sb if sa == (0,) else sa
    support, ia, ib, starts = _cauchy(sa, sb)
    return (lambda a, b: np.add.reduceat(a[ia] * b[ib], starts, axis=0)), support


def unit(sa: tuple):
    """a / a: its value only, 1 and NaN where a is 0."""
    return (lambda a, b: a[:1] / a[:1]), (0,)


def compose(sa: tuple, order: int, derivatives):
    """phi(a) = sum_{k <= order} phi^(k)(a0) * delta^k / k!, delta = a - a0.

    derivatives(a0) gives phi(a0), phi'(a0), ... up to order; delta^2 and
    delta^3 are the truncated products of delta with delta and delta^2.
    """
    has_value = bool(sa) and sa[0] == 0
    sd = sa[1:] if has_value else sa
    powers = [(sd, None)]
    for _ in range(min(order, 3) - 1):
        support, ia, ib, starts = _cauchy(powers[-1][0], sd)
        powers.append((support, (ia, ib, starts)))
    powers = [(support, product) for support, product in powers[:order] if support]
    su = tuple(sorted({0}.union(*(support for support, _ in powers))))
    positions = [[su.index(k) for k in support] for support, _ in powers]

    def rule(a, b):
        a0 = a[0] if has_value else np.zeros(a.shape[1])
        phis = derivatives(a0)
        out = np.zeros((len(su), a.shape[1]))
        out[0] = phis[0]
        d = dk = a[1:] if has_value else a
        for k, ((_, product), rows) in enumerate(zip(powers, positions), start=1):
            if product is not None:
                ia, ib, starts = product
                dk = np.add.reduceat(dk[ia] * d[ib], starts, axis=0)
            out[rows] += (phis[k] / _FACTORIALS[k]) * dk
        return out

    return rule, su


def pow_derivatives(p: float, power, order: int):
    """a0 -> [a0^p, p*a0^(p-1), p*(p-1)*a0^(p-2), ...] up to order, by power (** or np.power)."""
    def derivatives(a0):
        out, c = [], 1.0
        for k in range(order + 1):
            out.append(c * power(a0, p - k))
            c *= p - k
        return out
    return derivatives


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
