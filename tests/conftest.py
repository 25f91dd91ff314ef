import operator
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from peakonlaws import conslaw
from peakonlaws import expr as ex
from peakonlaws import pde


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


def _dx_u_jet_rule(v: ex.JetVar) -> ex.Expr:
    """D_x of a jet variable in the pure u-jet."""
    if v.base == "x":
        return ex.ONE
    if v.base == "t":
        return ex.ZERO
    if v.base == "m":
        raise ex.ExprError("m-variables are not part of the pure u-jet")
    return ex.Var(ex.JetVar("u", v.dx + 1, v.dt))


def _plain_euler(e: ex.Expr, base_dt: int = 0) -> ex.Expr:
    """sum_k (-D_x)^k d/du^(k) (base_dt = 0) or d/du_t^(k) (base_dt = 1) of e.

    By the round trip through the pure u-jet: to_u_jet, then the
    derivatives there, then to_m_jet of the sum.
    """
    eu = ex.to_u_jet(e)
    kmax = max((v.dx for v in ex.jet_vars(eu) if v.base == "u" and v.dt == base_dt), default=-1)
    total = ex.ZERO
    for k in range(kmax + 1):
        term = ex.diff(eu, ex.JetVar("u", k, base_dt))
        if isinstance(term, ex.Const) and term.value == 0.0:
            continue
        for _ in range(k):
            term = ex._derive(term, _dx_u_jet_rule)
        total = ex.add(total, term) if k % 2 == 0 else ex.sub(total, term)
    return ex.to_m_jet(total)


@pytest.fixture
def plain_euler():
    """Reference for expr.euler_u (base_dt = 0) and expr.euler_ut (base_dt = 1)."""
    return _plain_euler


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


def _full_conditions(eq) -> tuple:
    """(A, B, C) of the residual (mu-2)*A + nu*B + C, each built whole by euler_u.

    A = E_u((u*f - ux*g)*m) (H1), B = E_u(f*m) (momentum) and
    C = E_u((f + D_x(g)/2)*m^2), in the m-jet chart.
    """
    f, g, u, ux, m = eq.bound_f, eq.bound_g, ex.var("u"), ex.var("ux"), ex.var("m")
    A = ex.euler_u(ex.mul(ex.sub(ex.mul(u, f), ex.mul(ux, g)), m))
    B = ex.euler_u(ex.mul(f, m))
    C = ex.euler_u(ex.mul(ex.add(f, ex.mul(0.5, ex.d_x(g))), ex.pow_(m, 2)))
    return A, B, C


@pytest.fixture
def full_conditions():
    """Reference for the split conditions of conslaw: A, B and C as whole expression trees."""
    return _full_conditions


def _plain_coefficients(eq) -> dict:
    """{(condition, m-monomial): coefficient in (u, ux)} of eq, each built as an expression tree.

    The sum over its template of weight * partial, each partial of f and g
    taken by diff (d/du of the partial one order lower in u, else d/dux),
    zero partials left out: Add over Mul((weight, partial)), not canonical.
    """
    from peakonlaws import conslaw

    partials = {ex.Partial("f"): eq.bound_f, ex.Partial("g"): eq.bound_g}

    def partial(p: ex.Partial) -> ex.Expr:
        if p not in partials:
            lower, v = (ex.Partial(p.of, p.i - 1, p.j), ex.U) if p.i else (ex.Partial(p.of, 0, p.j - 1), ex.UX)
            partials[p] = ex.diff(partial(lower), v)
        return partials[p]

    out = {}
    for name, split in conslaw._templates().items():
        for mono, weights in split.items():
            terms = tuple(ex.Mul((w, partial(p))) for p, w in weights if partial(p) != ex.ZERO)
            out[name, mono] = ex.Add(terms) if len(terms) > 1 else terms[0] if terms else ex.ZERO
    return out


@pytest.fixture
def plain_coefficients():
    """Reference for conslaw._split_conditions: the coefficients as trees of diff partials."""
    return _plain_coefficients


def _plain_candidate_verdict(coeffs: dict, mu: float, nu: float, policy) -> ex.ZeroVerdict:
    """is_zero of the 1 and m rows of the residual (mu-2)*A + nu*B + C, each built as an expression.

    coeffs maps (condition, m-monomial) to its coefficient.  A nonzero row
    makes the residual nonzero, else an indeterminate row indeterminate.
    """
    rows = []
    for row in ("1", "m"):
        A, B, C = (coeffs.get((name, row), ex.ZERO) for name in "ABC")
        rows.append(ex.is_zero(ex.add(ex.mul(ex.const(mu - 2.0), A), ex.mul(ex.const(nu), B), C), policy))
    for status in ("nonzero", "indeterminate"):
        if any(v.status == status for v in rows):
            return ex.ZeroVerdict(status, max(v.residual_max for v in rows if v.status == status))
    return ex.ZeroVerdict("zero", max(v.residual_max for v in rows), None, exact=all(v.exact for v in rows))


@pytest.fixture
def plain_candidate_verdict():
    """Reference for conslaw._candidate_verdict: each residual row built, normalized and sampled anew."""
    return _plain_candidate_verdict


def _plain_vote(names, points, values, scales, rel_tol: float) -> ex.ZeroVerdict:
    """The vote of is_zero as a loop over the points, one dict each."""
    pts = [{**dict(zip(names, row)), "__value__": float(v), "__scale__": float(sc)}
           for row, v, sc in zip(points, values, scales)]
    worst, votes_zero, res_max = None, 0, 0.0
    for p in pts:
        rel = abs(p["__value__"]) / p["__scale__"]
        if rel <= rel_tol:
            votes_zero += 1
        if rel >= res_max:
            res_max, worst = rel, p
    witness = {k: v for k, v in worst.items() if not k.startswith("__")}
    witness["value"], witness["scale"] = worst["__value__"], worst["__scale__"]
    if votes_zero == len(pts):
        return ex.ZeroVerdict("zero", res_max, None)
    return ex.ZeroVerdict("nonzero" if votes_zero == 0 else "indeterminate", res_max, witness)


@pytest.fixture
def plain_vote():
    """Reference for expr.vote."""
    return _plain_vote


def _plain_coeff_key(t: ex.Expr) -> tuple:
    if isinstance(t, ex.Mul) and isinstance(t.factors[0], ex.Const):
        rest = t.factors[1:]
        return t.factors[0].value, (rest[0] if len(rest) == 1 else ex.Mul(rest))
    return 1.0, t


def _plain_add(*terms) -> ex.Expr:
    """add rebuilding every term: mul(Const(coefficient), key) for each key, merged or not."""
    flat, c = [], 0.0
    for t in terms:
        t = ex._as_expr(t)
        if isinstance(t, ex.Add):
            flat.extend(t.terms)
        elif isinstance(t, ex.Const):
            c += t.value
        else:
            flat.append(t)
    coeffs, order = {}, []
    for t in flat:
        if isinstance(t, ex.Const):
            c += t.value
            continue
        k, key = _plain_coeff_key(t)
        if key not in coeffs:
            coeffs[key] = 0.0
            order.append(key)
        coeffs[key] += k
    rest = [_plain_mul(ex.Const(coeffs[key]), key) for key in order if coeffs[key] != 0.0]
    if c != 0.0:
        rest.append(ex.Const(c))
    if not rest:
        return ex.ZERO
    return rest[0] if len(rest) == 1 else ex.Add(tuple(rest))


def _plain_mul(*factors) -> ex.Expr:
    """mul rebuilding every factor, regrouped until a product's own factors give it back."""
    out = _plain_mul_once(*factors)
    while isinstance(out, ex.Mul):
        again = _plain_mul_once(*out.factors)
        if again == out:
            break
        out = again
    return out


def _plain_mul_once(*factors) -> ex.Expr:
    """One grouping pass of mul: factors grouped by base in a list, and pow_ of each base and exponent."""
    flat, c = [], 1.0
    for f in factors:
        f = ex._as_expr(f)
        if isinstance(f, ex.Mul):
            flat.extend(f.factors)
        elif isinstance(f, ex.Const):
            c *= f.value
        else:
            flat.append(f)
    rest = []
    for f in flat:
        if isinstance(f, ex.Const):
            c *= f.value
        else:
            rest.append(f)
    if c == 0.0:
        return ex.ZERO
    grouped = []
    for f in rest:
        b, e = (f.base, f.exp) if isinstance(f, ex.Pow) else (f, ex._UNIT)
        for i, (gb, ge) in enumerate(grouped):
            if gb == b:
                grouped[i] = (gb, ge + e)
                break
        else:
            grouped.append((b, e))
    rest = [b if e is ex._UNIT else ex.pow_(b, e) for b, e in grouped if e != 0]
    rest = [f for f in rest if not (isinstance(f, ex.Const) and f.value == 1.0)]
    if not rest:
        return ex.Const(c)
    if len(rest) == 1 and isinstance(rest[0], ex.Add) and c != 1.0:
        return _plain_add(*(_plain_mul(ex.Const(c), t) for t in rest[0].terms))
    if c != 1.0:
        rest.insert(0, ex.Const(c))
    return rest[0] if len(rest) == 1 else ex.Mul(tuple(rest))


@pytest.fixture
def plain_add():
    """Reference for expr.add: every term rebuilt through plain_mul."""
    return _plain_add


@pytest.fixture
def plain_mul():
    """Reference for expr.mul: every factor rebuilt, repeated bases found by a scan."""
    return _plain_mul


def _fraction_pmul(p: dict, q: dict) -> dict:
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            powers = dict(m1)
            for s, k in m2:
                powers[s] = powers.get(s, 0) + k
            _fraction_accumulate(out, tuple(sorted((s, k) for s, k in powers.items() if k)), c1 * c2)
    return out


def _fraction_diff(form: dict, symbol: str) -> dict:
    out = {}
    for mono, c in form.items():
        k = dict(mono).get(symbol, 0)
        if k:
            out[tuple((s, j - (s == symbol)) for s, j in mono if (s, j) != (symbol, 1))] = c * k
    return out


def _fraction_sum(forms) -> dict:
    out = {}
    for form in forms:
        for mono, c in form.items():
            _fraction_accumulate(out, mono, c)
    return out


def _fraction_accumulate(out: dict, m: tuple, c: Fraction):
    if m in out:
        c += out[m]
        if not c:
            del out[m]
            return
    out[m] = c


def _fraction_normal_form(e: ex.Expr, nf) -> dict | None:
    if isinstance(e, ex.Const):
        c = Fraction(e.value)
        return {(): c} if c else {}
    if isinstance(e, ex.Var):
        return {((e.v.name, 1),): Fraction(1)}
    if isinstance(e, (ex.Param, ex.Partial)):
        return {((e.name, 1),): Fraction(1)}
    if isinstance(e, ex.Add):
        out = {}
        for t in e.terms:
            p = nf(t)
            if p is None:
                return None
            out = dict(out)
            for m, c in p.items():
                _fraction_accumulate(out, m, c)
        return out
    if isinstance(e, ex.Mul):
        out = {(): Fraction(1)}
        for f in e.factors:
            p = nf(f)
            if p is None:
                return None
            out = _fraction_pmul(out, p)
        return out
    if isinstance(e, ex.Pow):
        p = nf(e.base)
        if p is None:
            return None
        if len(p) == 0:
            return {} if e.exp > 0 else None
        if len(p) == 1 and next(iter(p)) == ():
            c = p[()]
            if e.exp.denominator == 1:
                k = e.exp.numerator
                return {(): c**k} if c or k > 0 else None
            return None
        if e.exp.denominator != 1 or e.exp < 0:
            return None
        out = {(): Fraction(1)}
        for _ in range(e.exp.numerator):
            out = _fraction_pmul(out, p)
        return out
    return None


def _fraction_normal_forms(exprs) -> list:
    """The normal forms of exprs over Fraction, a gcd per operation, memoised per call as expr's."""
    memo = {}

    def nf(n):
        if id(n) not in memo:
            memo[id(n)] = _fraction_normal_form(n, nf)
        return memo[id(n)]

    return [nf(e) for e in exprs]


@pytest.fixture
def fraction_normal_forms():
    """Reference for expr.poly_normal_forms: the same expansion with Fraction coefficients.

    Its one difference by design: a constant base to a negative power
    folds to any rational here, and to a dyadic one only in expr (else
    None, and the sampler decides).
    """
    return _fraction_normal_forms


@pytest.fixture
def recognized(monkeypatch):
    """A spy on conslaw._recognize: one (w, arg, q, exact) per call, in call order.

    exact is True when q came from the exact path: the call evaluated no
    probe (ex.evaluate, which only the numeric path calls).
    """
    calls, probes = [], []
    real_recognize, real_evaluate = conslaw._recognize, ex.evaluate

    def recognize(w, arg):
        before = len(probes)
        q = real_recognize(w, arg)
        calls.append((w, arg, q, len(probes) == before))
        return q

    monkeypatch.setattr(ex, "evaluate", lambda e, point: probes.append(e) or real_evaluate(e, point))
    monkeypatch.setattr(conslaw, "_recognize", recognize)
    return calls
