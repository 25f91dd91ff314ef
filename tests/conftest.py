import operator
from functools import reduce

import numpy as np
import pytest

from peakonlaws import expr as ex
from peakonlaws import pde
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


def _plain_value(e: ex.Expr, env):
    """Value of e by plain recursion: a node per parent, each power in its own errstate."""
    if isinstance(e, ex.Const):
        return np.float64(e.value)
    if isinstance(e, (ex.Param, ex.Var)):
        return np.asarray(env[e.name if isinstance(e, ex.Param) else e.v.name])
    if isinstance(e, (ex.Add, ex.Mul)):
        op = operator.add if isinstance(e, ex.Add) else operator.mul
        return reduce(op, [_plain_value(c, env) for c in ex._children(e)])
    if isinstance(e, ex.Pow):
        b, p = _plain_value(e.base, env), float(e.exp)
        integer, negative = e.exp.denominator == 1, e.exp < 0
        if integer and not negative:
            return b ** p
        with np.errstate(all="ignore"):
            r = b ** p if integer else np.power(b, p)
            return r * (b / b) if negative else r
    a = _plain_value(e.arg, env)
    with np.errstate(all="ignore"):
        return ex._FN_UFUNCS[e.name](a)


def _plain_terms(e: ex.Expr, env) -> list:
    return [_plain_value(t, env) for t in (e.terms if isinstance(e, ex.Add) else (e,))]


@pytest.fixture
def plain_terms():
    """Reference for expr.compile_terms: env -> top-level term values."""
    return _plain_terms


class _PlainStepper:
    """RK4 on m_hat with a fresh array for every product and stage."""

    def __init__(self, grid, eq, dealias=True):
        self.grid, self.eq = grid, eq
        mask = grid.dealias_mask if dealias else np.ones_like(grid.k)
        self.out_f = -mask
        self.out_g = -mask * grid.ik

    def nodal(self, mh):
        return np.fft.irfft(self.grid.lift * mh, n=self.grid.n)

    def rates(self, u, ux, m):
        env = {"u": u, "ux": ux, "x": self.grid.x}
        fv = reduce(operator.add, _plain_terms(self.eq.bound_f, env))
        gv = reduce(operator.add, _plain_terms(self.eq.bound_g, env))
        if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
            bad = np.flatnonzero(~(np.isfinite(fv) & np.isfinite(gv)))
            raise pde.SingularHit("f or g is non-finite on the grid", float(self.grid.x[bad[0]]))
        fh, gh = np.fft.rfft(np.stack([fv * m, gv * m]))
        return self.out_f * fh + self.out_g * gh

    def step(self, mh, u, ux, m, dt):
        k1 = self.rates(u, ux, m)
        k2 = self.rates(*self.nodal(mh + 0.5 * dt * k1))
        k3 = self.rates(*self.nodal(mh + 0.5 * dt * k2))
        k4 = self.rates(*self.nodal(mh + dt * k3))
        return mh + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _plain_run(config, steps: int):
    """Final nodal (u, u_x, m) and the series after steps RK4 steps from initial_data."""
    grid = config.grid
    stepper = _PlainStepper(grid, config.equation, config.dealias)
    mh = np.fft.rfft(pde.initial_data(config))
    u, ux, m = stepper.nodal(mh)
    series = pde.ConservedSeries()
    for step in range(steps + 1):
        if step:
            mh = stepper.step(mh, u, ux, m, config.dt)
            u, ux, m = stepper.nodal(mh)
        series.record(grid, pde.GridState(step * config.dt, m, u, ux), config.energy_mu, config.energy_nu)
    return (u, ux, m), series


@pytest.fixture
def plain_stepper():
    """Reference for pde.Stepper: its rates and step, allocating every array."""
    return _PlainStepper


@pytest.fixture
def plain_run():
    """Reference for pde.run without guard or blow-up check, recording every step."""
    return _plain_run
