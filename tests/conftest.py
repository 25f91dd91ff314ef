import numpy as np
import pytest

from peakonlaws import expr as ex
from peakonlaws.twave import _xi_of_U, solitary_peak_height


def _plain_bisection(b: float, c: float, xi) -> np.ndarray:
    """U(xi) of the solitary wave: 110 bisection steps on every node."""
    xi = np.asarray(xi, dtype=float)
    umax = solitary_peak_height(b, c)
    target = np.abs(xi)
    lo = np.zeros_like(target)
    hi = np.full_like(target, umax)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        too_close_to_peak = _xi_of_U(mid, b, c) > target
        lo = np.where(too_close_to_peak, mid, lo)
        hi = np.where(too_close_to_peak, hi, mid)
    return np.where(target == 0.0, umax, 0.5 * (lo + hi))


@pytest.fixture
def plain_bisection():
    """Reference inversion for twave.solitary_profile."""
    return _plain_bisection


def _plain_derive(e: ex.Expr, var_rule) -> ex.Expr:
    """The chain rule by plain recursion: a shared subtree is derived once per parent."""
    if isinstance(e, (ex.Const, ex.Param)):
        return ex.ZERO
    if isinstance(e, ex.Var):
        return var_rule(e.v)
    if isinstance(e, ex.Add):
        return ex.add(*(_plain_derive(t, var_rule) for t in e.terms))
    if isinstance(e, ex.Mul):
        parts = []
        fs = e.factors
        for i, f in enumerate(fs):
            dfi = _plain_derive(f, var_rule)
            if isinstance(dfi, ex.Const) and dfi.value == 0.0:
                continue
            parts.append(ex.mul(*fs[:i], dfi, *fs[i + 1:]))
        return ex.add(*parts)
    if isinstance(e, ex.Pow):
        db = _plain_derive(e.base, var_rule)
        if isinstance(db, ex.Const) and db.value == 0.0:
            return ex.ZERO
        return ex.mul(ex.Const(float(e.exp)), ex.pow_(e.base, e.exp - 1), db)
    da = _plain_derive(e.arg, var_rule)
    if isinstance(da, ex.Const) and da.value == 0.0:
        return ex.ZERO
    a = e.arg
    return {
        "exp": lambda: ex.mul(e, da),
        "ln": lambda: ex.div(da, a),
        "sqrt": lambda: ex.div(da, ex.mul(2, ex.fn("sqrt", a))),
        "sin": lambda: ex.mul(ex.fn("cos", a), da),
        "cos": lambda: ex.neg(ex.mul(ex.fn("sin", a), da)),
        "arctanh": lambda: ex.div(da, ex.sub(1, ex.mul(a, a))),
    }[e.name]()


def _plain_substitute(e: ex.Expr, table) -> ex.Expr:
    """Substitution by plain recursion: a shared subtree is rebuilt once per parent."""
    if isinstance(e, ex.Var):
        return table.get(e.v, e)
    if isinstance(e, ex.Add):
        return ex.add(*(_plain_substitute(t, table) for t in e.terms))
    if isinstance(e, ex.Mul):
        return ex.mul(*(_plain_substitute(f, table) for f in e.factors))
    if isinstance(e, ex.Pow):
        return ex.pow_(_plain_substitute(e.base, table), e.exp)
    if isinstance(e, ex.Fn):
        return ex.fn(e.name, _plain_substitute(e.arg, table))
    return e


@pytest.fixture
def plain_derive():
    """Reference for expr._derive, the engine of d_x, d_t, diff and euler_u."""
    return _plain_derive


@pytest.fixture
def plain_substitute():
    """Reference for expr.substitute, the engine of to_u_jet and to_m_jet."""
    return _plain_substitute
