"""Conservation-law verdicts and constructions for the peakon equation class.

Implements the determining-condition residual tests (momentum, H1 norm,
gradient energy over the two-parameter density u_xx^2 + mu*u_x^2 +
(mu-1)*u^2 + 2*nu*u), closed-form density/flux builders for the families
that admit them, the off-shell characteristic-equation checker, and the
multiplier conditions.

The momentum and H1 currents need f (for H1, u*f - ux*g) of the form
ux*f1(y) + f0*u/y, y = u^2 - ux^2, with f1 a polynomial or a single
rational power of y.  The regular part is odd in ux and the pole term
even, so f0 is read off the ux-even part at one point; f1 is then
recognized from what is left, and a reconstruction that does not match
it on the whole sampling box builds no current.

All verdicts are randomized-numeric via expr.is_zero: an expression is
declared zero only when every sampled jet point agrees, with an exact
polynomial fast path where available.  A gradient-energy candidate
(mu, nu) is judged by the same rule (expr.vote) without building its
residual: exactly from the normal forms of A, B and C that their zero
tests kept, else at the points the fit sampled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import expr as ex
from .expr import (
    Expr,
    ExprError,
    SamplingPolicy,
    ZeroVerdict,
    add,
    const,
    d_t,
    d_x,
    div,
    euler_u,
    euler_ut,
    fn,
    is_zero,
    mul,
    neg,
    parse,
    pow_,
    sub,
    var,
)

__all__ = [
    "EquationSpec",
    "Verdict",
    "GradEnergySolutions",
    "ConservedCurrent",
    "ConservationReport",
    "check_momentum",
    "check_h1",
    "check_grad_energy",
    "classify",
    "flux_momentum",
    "flux_h1",
    "flux_grad_energy",
    "characteristic_check",
    "multiplier_conditions",
    "upsilon",
]

_U = var("u")
_UX = var("ux")
_M = var("m")
_X = var("x")
_UTX = var("utx")

# u^2 - ux^2, the argument every classified family is built from
_Y = sub(pow_(_U, 2), pow_(_UX, 2))


@dataclass(frozen=True)
class EquationSpec:
    """One equation m_t + f(u,ux)*m + (g(u,ux)*m)_x = 0.

    f and g may reference declared parameters; bound_f/bound_g carry the
    numeric values substituted in.
    """

    f: Expr
    g: Expr
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, e in (("f", self.f), ("g", self.g)):
            bad = {v.name for v in ex.jet_vars(e)} - {"u", "ux"}
            if bad:
                raise ExprError(f"{name} may depend on u, ux only; found {sorted(bad)}")
            unbound = ex.param_names(e) - set(self.params)
            if unbound:
                raise ExprError(f"{name} has unbound parameters {sorted(unbound)}")
        if not (ex.jet_vars(self.bound_f) | ex.jet_vars(self.bound_g)):
            raise ExprError("degenerate equation: f and g are both constant")

    # bound once per equation: cached_property writes __dict__, which frozen allows
    @cached_property
    def bound_f(self) -> Expr:
        return ex.bind_params(self.f, self.params)

    @cached_property
    def bound_g(self) -> Expr:
        return ex.bind_params(self.g, self.params)

    @staticmethod
    def from_strings(f: str, g: str, params: dict | None = None) -> "EquationSpec":
        params = dict(params or {})
        return EquationSpec(parse(f, params), parse(g, params), params)


def upsilon(eq: EquationSpec) -> Expr:
    """The defining expression m_t + f*m + D_x(g*m); zero exactly on solutions."""
    return add(var("mt"), mul(eq.bound_f, _M), d_x(mul(eq.bound_g, _M)))


@dataclass(frozen=True)
class Verdict:
    conserved: bool | None  # None = indeterminate
    residual_max: float
    witness: dict | None = None

    @staticmethod
    def from_zero(v: ZeroVerdict) -> "Verdict":
        conserved = {"zero": True, "nonzero": False, "indeterminate": None}[v.status]
        return Verdict(conserved, v.residual_max, v.witness)

    def to_json(self) -> dict:
        out = {"conserved": self.conserved, "residual_max": self.residual_max}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# ---------------------------------------------------------------------------
# determining conditions


def momentum_condition(eq: EquationSpec) -> Expr:
    return euler_u(mul(eq.bound_f, _M))


def h1_condition(eq: EquationSpec) -> Expr:
    w = sub(mul(_U, eq.bound_f), mul(_UX, eq.bound_g))
    return euler_u(mul(w, _M))


def grad_energy_conditions(eq: EquationSpec) -> tuple[Expr, Expr, Expr]:
    """Coefficients (A, B, C) of the affine residual (mu-2)*A + nu*B + C."""
    f, g = eq.bound_f, eq.bound_g
    A = h1_condition(eq)
    B = momentum_condition(eq)
    C = euler_u(mul(add(f, mul(0.5, d_x(g))), pow_(_M, 2)))
    return A, B, C


def check_momentum(eq: EquationSpec, policy: SamplingPolicy | None = None) -> Verdict:
    """Momentum density T = m (equivalently T = u) is conserved iff E_u(f*m) = 0."""
    return Verdict.from_zero(is_zero(momentum_condition(eq), policy))


def check_h1(eq: EquationSpec, policy: SamplingPolicy | None = None) -> Verdict:
    """H1 density T = ux^2 + u^2 is conserved iff E_u((u*f - ux*g)*m) = 0."""
    return Verdict.from_zero(is_zero(h1_condition(eq), policy))


@dataclass(frozen=True)
class GradEnergySolutions:
    """Solution set in the (mu, nu) plane of the gradient-energy condition.

    kind is one of empty / point / line / plane / indeterminate; for a
    point (mu, nu) is the solution, for a line it is a representative
    point with `direction` spanning the line.
    """

    kind: str
    mu: float | None = None
    nu: float | None = None
    direction: tuple[float, float] | None = None
    residual_max: float = 0.0

    def contains(self, mu: float, nu: float, tol: float = 1e-6) -> bool:
        if self.kind == "plane":
            return True
        if self.kind == "point":
            return abs(self.mu - mu) <= tol and abs(self.nu - nu) <= tol
        if self.kind == "line":
            dmu, dnu = self.direction
            rmu, rnu = mu - self.mu, nu - self.nu
            # distance from the line through (self.mu, self.nu) along direction
            proj = rmu * dmu + rnu * dnu
            return math.hypot(rmu - proj * dmu, rnu - proj * dnu) <= tol
        return False

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "mu": self.mu,
            "nu": self.nu,
            "direction": list(self.direction) if self.direction else None,
        }


def _snap(x: float, tol: float = 1e-9) -> float:
    return 0.0 if abs(x) < tol else float(x)


def check_grad_energy(
    eq: EquationSpec, policy: SamplingPolicy | None = None
) -> GradEnergySolutions:
    """Solve the gradient-energy determining condition over (mu, nu).

    The residual is affine, (mu-2)*A + nu*B + C; sampling the coefficient
    expressions turns the classification into rank analysis of a K x 2
    linear system.  Singular values below 1e-7 of the largest are treated
    as zero; any value within a factor 10 of that threshold makes the rank
    decision ambiguous and the verdict indeterminate.  Each candidate
    (mu, nu) is then zero-tested as a residual (see _candidate_verdict).
    """
    policy = policy or SamplingPolicy()
    A, B, C = grad_energy_conditions(eq)
    return _solve_grad_energy(A, B, C, is_zero(C, policy), policy)


def _candidate_verdict(
    conds: tuple[Expr, Expr, Expr], samples: ex.Samples, mu: float, nu: float, rel_tol: float
) -> ZeroVerdict:
    """Zero test of the residual (mu-2)*A + nu*B + C from the parts in hand.

    conds is (A, B, C) and samples is sample([A, B, C]).  When A, B and C
    are polynomial, their normal forms are combined exactly with weights
    Fraction(mu-2), Fraction(nu) and 1, and an empty result is an exact
    zero.  Otherwise the values (mu-2)*a + nu*b + c vote at the sampled
    points, each against the scale max(1, |mu-2|*s_A, |nu|*s_B, s_C).
    The residual is never built, normalized, compiled or sampled anew.
    """
    weights = (mu - 2.0, nu, 1.0)
    forms = [e._poly for e in conds]
    if all(nf is not None for nf in forms):
        combined: dict = {}
        for w, nf in zip(weights, forms):
            if w:
                for mono, c in nf.items():
                    ex._accumulate(combined, mono, Fraction(w) * c)
        if not combined:
            return ZeroVerdict("zero", 0.0, None, exact=True)
    (a, b, c), (sa, sb, sc) = samples.values, samples.scales
    values = weights[0] * a + weights[1] * b + c
    scales = np.maximum(np.maximum(abs(weights[0]) * sa, abs(weights[1]) * sb), sc)  # sc >= 1
    return ex.vote(samples, values, scales, rel_tol)


def _solve_grad_energy(
    A: Expr, B: Expr, C: Expr, vc: ZeroVerdict, policy: SamplingPolicy
) -> GradEnergySolutions:
    """check_grad_energy on built conditions; vc is the zero test of C."""
    samples = ex.sample([A, B, C], policy)
    avals, bvals, cvals = samples.values / samples.scales.max(axis=0)

    mat = np.column_stack([avals, bvals])
    svals = np.linalg.svd(mat, compute_uv=False)
    smax = svals[0] if len(svals) else 0.0
    # column magnitudes are O(1) after scale normalization, so compare the
    # rank threshold against max(smax, 1)
    thresh = 1e-7 * max(smax, 1.0)
    near = [s for s in svals if thresh / 10.0 < s < thresh * 10.0]
    if near:
        return GradEnergySolutions("indeterminate", residual_max=float(smax))
    rank = int(np.sum(svals > thresh))

    def validated(mu: float, nu: float) -> ZeroVerdict:
        return _candidate_verdict((A, B, C), samples, mu, nu, policy.rel_tol)

    if rank == 0:
        if vc.status == "zero":
            return GradEnergySolutions("plane", residual_max=vc.residual_max)
        if vc.status == "nonzero":
            return GradEnergySolutions("empty", residual_max=vc.residual_max)
        return GradEnergySolutions("indeterminate", residual_max=vc.residual_max)

    if rank == 2:
        sol, *_ = np.linalg.lstsq(mat, -cvals, rcond=None)
        mu, nu = _snap(float(sol[0]) + 2.0), _snap(float(sol[1]))
        v = validated(mu, nu)
        if v.status == "zero":
            return GradEnergySolutions("point", mu, nu, residual_max=v.residual_max)
        if v.status == "nonzero":
            return GradEnergySolutions("empty", residual_max=v.residual_max)
        return GradEnergySolutions("indeterminate", residual_max=v.residual_max)

    # rank 1: minimum-norm particular solution plus the null direction
    sol, *_ = np.linalg.lstsq(mat, -cvals, rcond=None)
    _, _, vt = np.linalg.svd(mat)
    null = vt[1]
    null = null / np.hypot(*null)
    null = np.array([_snap(null[0]), _snap(null[1])])
    null = null / np.hypot(*null)
    mu0, nu0 = _snap(float(sol[0]) + 2.0), _snap(float(sol[1]))
    v1 = validated(mu0, nu0)
    v2 = validated(mu0 + null[0], nu0 + null[1])
    if v1.status == "zero" and v2.status == "zero":
        return GradEnergySolutions(
            "line", mu0, nu0, (float(null[0]), float(null[1])),
            residual_max=max(v1.residual_max, v2.residual_max),
        )
    if "indeterminate" in (v1.status, v2.status):
        return GradEnergySolutions("indeterminate", residual_max=v1.residual_max)
    return GradEnergySolutions("empty", residual_max=max(v1.residual_max, v2.residual_max))


# ---------------------------------------------------------------------------
# conserved currents and their construction


@dataclass(frozen=True)
class ConservedCurrent:
    """Density/flux/multiplier triple in the restricted jet vocabulary:
    T(u, ux, m), Phi(x, u, ux, m, ut, utx), Q(u, ux, m, ut, utx)."""

    name: str
    T: Expr
    Phi: Expr
    Q: Expr

    def __post_init__(self):
        allowed = {
            "T": {"u", "ux", "m"},
            "Phi": {"x", "u", "ux", "m", "ut", "utx"},
            "Q": {"u", "ux", "m", "ut", "utx"},
        }
        for field_name, vocab in allowed.items():
            bad = {v.name for v in ex.jet_vars(getattr(self, field_name))} - vocab
            if bad:
                raise ExprError(f"{field_name} may depend on {sorted(vocab)} only; found {sorted(bad)}")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "T": ex.to_source(self.T),
            "Phi": ex.to_source(self.Phi),
            "Q": ex.to_source(self.Q),
        }


def _pole_coefficient(w: Expr) -> float:
    """Coefficient f0 of the u/(u^2-ux^2) pole in w = ux*q(u^2-ux^2) + f0*u/(u^2-ux^2).

    The regular part is odd in ux and the pole term even, so f0 is the
    ux-even part of w times (u^2-ux^2)/u, read at one point off the loci
    u = 0 and u^2 = ux^2.  Snapped to a nearby small rational when one
    matches.  For a w of another form the value is meaningless; no current
    comes of it, because the recognizer rejects what is left.
    """
    u0, ux0 = 1.3, 0.6
    even = 0.5 * (ex.evaluate(w, {"u": u0, "ux": ux0}) + ex.evaluate(w, {"u": u0, "ux": -ux0}))
    est = even * (u0 * u0 - ux0 * ux0) / u0
    if not math.isfinite(est):
        return 0.0
    snapped = Fraction(est).limit_denominator(1000)
    if abs(float(snapped) - est) <= 1e-6 * max(1.0, abs(est)):
        return float(snapped)
    return est


def _poly_in_y_exact(w: Expr) -> list[Fraction] | None:
    """Exact coefficients c_k with w = ux * sum(c_k * (u^2-ux^2)^k), or None."""
    nf = ex.poly_normal_form(w)
    if nf is None or ex.param_names(w):
        return None
    # candidate f1 from w's ux*u^(2k) monomials, which are ux*f1(u^2)
    coeffs: dict[int, Fraction] = {}
    for mono, c in nf.items():
        d = dict(mono)
        k = d.get("u", 0)
        if d.get("ux") == 1 and k % 2 == 0:
            coeffs[k // 2] = c
    clist = [coeffs.get(k, Fraction(0)) for k in range(max(coeffs, default=0) + 1)]
    diff = ex.poly_normal_form(sub(w, mul(_UX, _poly_apply(clist, _Y))))
    return clist if diff == {} else None


def _poly_apply(coeffs, base: Expr) -> Expr:
    terms = [mul(const(float(c)), pow_(base, k)) if k else const(float(c)) for k, c in enumerate(coeffs)]
    return add(*terms)


def _poly_antiderivative(coeffs) -> list[float]:
    """Term-wise antiderivative of sum c_k x^k, vanishing at 0."""
    return [0.0] + [float(c) / (k + 1) for k, c in enumerate(coeffs)]


@dataclass(frozen=True)
class _Recognized:
    """q(x) of one argument x (u^2-ux^2 or u): sum coeffs[k]*x^k, or c*x^r."""

    arg: Expr
    coeffs: tuple = ()
    c: float = 0.0
    r: Fraction | None = None  # None for the polynomial

    def expr(self) -> Expr:
        if self.r is None:
            return _poly_apply(self.coeffs, self.arg)
        return mul(const(self.c), pow_(self.arg, self.r))

    def antiderivative(self) -> Expr:
        if self.r is None:
            return _poly_apply(_poly_antiderivative(self.coeffs), self.arg)
        if self.r == -1:
            return mul(const(self.c), fn("ln", self.arg))
        return mul(const(self.c / float(self.r + 1)), pow_(self.arg, self.r + 1))


_VALIDATION_POLICY = SamplingPolicy(seed=1299827)


def _validated(w: Expr, factor: Expr, cand: _Recognized) -> _Recognized | None:
    """Accept a recognized q only if w = factor*q(x) on the whole box.

    Numeric fits are done on a one-dimensional probe; an analytic
    impostor (say ln(4+y)) can match a polynomial there to 1e-10 yet break
    the flux off-shell, so the reconstruction is re-tested with the
    standard randomized sampler before use.
    """
    try:
        v = is_zero(sub(w, mul(factor, cand.expr())), _VALIDATION_POLICY)
    except ex.SingularSamplingError:
        return None
    return cand if v.is_zero else None


def _power_fit(xs: np.ndarray, vals: np.ndarray) -> tuple[float, Fraction] | None:
    """(c, r) with vals = c*xs^r at every sample, r of denominator <= 12; else None.

    The log-log slopes between neighbouring samples must agree to 1e-6.
    """
    if not np.all(np.isfinite(vals)) or not (np.all(vals > 0) or np.all(vals < 0)):
        return None
    sgn = 1.0 if vals[0] > 0 else -1.0
    logs = np.log(sgn * vals)
    slopes = np.diff(logs) / np.diff(np.log(xs))
    r = float(np.median(slopes))
    if np.max(np.abs(slopes - r)) > 1e-6 * max(1.0, abs(r)):
        return None
    rfrac = Fraction(r).limit_denominator(12)
    if abs(float(rfrac) - r) > 1e-6:
        return None
    return sgn * float(np.median(np.exp(logs - float(rfrac) * np.log(xs)))), rfrac


def _recognize_y_function(w: Expr) -> _Recognized | None:
    """Recognize w(u, ux) = ux * q(u^2 - ux^2); exact path first, numeric fit after."""
    exact = _poly_in_y_exact(w)
    if exact is not None:
        return _Recognized(_Y, tuple(exact))

    def q_at(y: float, ux0: float) -> float:
        u0 = math.sqrt(y + ux0 * ux0)
        v = ex.evaluate(w, {"u": u0, "ux": ux0})
        return v / ux0

    ys = np.linspace(0.4, 2.2, 10)
    try:
        q1 = np.array([q_at(y, 0.7) for y in ys])
        q2 = np.array([q_at(y, 1.1) for y in ys])
    except (ValueError, OverflowError):
        return None
    if not (np.all(np.isfinite(q1)) and np.all(np.isfinite(q2))):
        return None
    scale = max(1.0, float(np.max(np.abs(q1))))
    if np.max(np.abs(q1 - q2)) > 1e-8 * scale:
        return None  # depends on more than y

    # polynomial fit with increasing degree
    for deg in range(0, 9):
        V = np.vander(ys, deg + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(V, q1, rcond=None)
        if np.max(np.abs(V @ coef - q1)) <= 1e-9 * scale:
            snapped = []
            for c in coef:
                fr = Fraction(float(c)).limit_denominator(10**6)
                snapped.append(fr if abs(float(fr) - c) <= 1e-10 * max(1.0, abs(c)) else c)
            snapped = [0.0 if abs(float(c)) < 1e-12 * scale else c for c in snapped]
            return _validated(w, _UX, _Recognized(_Y, tuple(snapped)))

    fit = _power_fit(ys, q1)
    if fit is None:
        return None
    return _validated(w, _UX, _Recognized(_Y, c=fit[0], r=fit[1]))


_LN_JUMP = fn("ln", div(sub(_U, _UX), add(_U, _UX)))


def flux_momentum(eq: EquationSpec) -> ConservedCurrent | None:
    """Closed-form momentum current (T = u); None when not constructible.

    Requires f = ux*f1(u^2-ux^2) + f0*u/(u^2-ux^2) with f1 a polynomial or
    a single rational power c*y^r of y = u^2-ux^2 (r = -1 integrates to a
    logarithm).  f0 is read off the ux-parity: the pole term is the
    ux-even part of f (see _pole_coefficient).
    """
    f = eq.bound_f
    f0 = _pole_coefficient(f)
    f_reg = sub(f, mul(const(f0), div(_U, _Y))) if f0 else f
    rec = _recognize_y_function(f_reg)
    if rec is None:
        return None
    phi = add(mul(eq.bound_g, _M), neg(_UTX), mul(0.5, rec.antiderivative()))
    if f0:
        phi = add(phi, mul(const(0.5 * f0), _LN_JUMP), mul(const(f0), _X))
    return ConservedCurrent("momentum", _U, phi, ex.ONE)


def flux_h1(eq: EquationSpec) -> ConservedCurrent | None:
    """Closed-form H1 current (T = ux^2 + u^2); None when not constructible.

    Requires w = u*f - ux*g = ux*h1(u^2-ux^2) + h0*u/(u^2-ux^2), with h1
    as f1 of flux_momentum and h0 the ux-even part of w times
    (u^2-ux^2)/u.
    """
    f, g = eq.bound_f, eq.bound_g
    w = sub(mul(_U, f), mul(_UX, g))
    h0 = _pole_coefficient(w)
    w_reg = sub(w, mul(const(h0), div(_U, _Y))) if h0 else w
    rec = _recognize_y_function(w_reg)
    if rec is None:
        return None
    h1 = rec.expr()
    # split f = ux*h + ux*h1/(2u) + h0/(2y); h absorbs whatever remains
    known = mul(0.5, div(mul(_UX, h1), _U))
    if h0:
        known = add(known, div(const(0.5 * h0), _Y))
    h = div(sub(f, known), _UX)
    phi = add(
        mul(-2.0, _U, _UTX),
        mul(2.0, pow_(_U, 2), h, _M),
        neg(mul(_U, h1, _M)),
        rec.antiderivative(),
    )
    if h0:
        phi = add(
            phi,
            neg(mul(const(h0), div(mul(pow_(_U, 2), _M), mul(_UX, _Y)))),
            mul(const(h0), _LN_JUMP),
            mul(const(2.0 * h0), _X),
        )
    return ConservedCurrent("h1", add(pow_(_UX, 2), pow_(_U, 2)), phi, mul(2.0, _U))


def _integral_in_u(g: Expr) -> Expr | None:
    """G(u) = integral of g du for polynomial g(u) or a single power c*u^r."""
    if ex.jet_vars(g) - {ex.U}:
        return None
    nf = ex.poly_normal_form(g)
    if nf is not None:
        coeffs: dict[int, Fraction] = {dict(mono).get("u", 0): c for mono, c in nf.items()}
        clist = [coeffs.get(k, Fraction(0)) for k in range(max(coeffs, default=0) + 1)]
        return _Recognized(_U, tuple(clist)).antiderivative()
    us = np.linspace(0.5, 2.5, 9)
    try:
        vals = np.array([ex.evaluate(g, {"u": float(u0)}) for u0 in us])
    except (ValueError, OverflowError):
        return None
    fit = _power_fit(us, vals)
    if fit is None:
        return None
    rec = _validated(g, ex.ONE, _Recognized(_U, c=fit[0], r=fit[1]))
    return None if rec is None else rec.antiderivative()


def flux_grad_energy(eq: EquationSpec, mu: float, nu: float) -> ConservedCurrent | None:
    """Gradient-energy current at a given (mu, nu); None when not constructible.

    At (mu, nu) = (2, 0) the locally equivalent form T = m^2, Phi = g*m^2
    is emitted; otherwise the full density u_xx^2 + mu*ux^2 + (mu-1)*u^2 +
    2*nu*u (with u_xx = u - m) and its flux, which needs G = integral of
    g du in closed form.
    """
    f, g = eq.bound_f, eq.bound_g
    if abs(mu - 2.0) < 1e-12 and abs(nu) < 1e-12:
        if ex.jet_vars(g) - {ex.U}:
            return None
        return ConservedCurrent("l2m", pow_(_M, 2), mul(g, pow_(_M, 2)), mul(2.0, _M))
    G = _integral_in_u(g)
    if G is None:
        return None
    uxx = sub(_U, _M)
    T = add(pow_(uxx, 2), mul(const(mu), pow_(_UX, 2)), mul(const(mu - 1.0), pow_(_U, 2)), mul(const(2.0 * nu), _U))
    g_u = ex.diff(g, ex.U)
    shift = add(mul(const(mu - 2.0), _U), const(nu))
    phi = add(
        mul(2.0, sub(mul(const(1.0 - mu), _U), const(nu)), _UTX),
        mul(-2.0, _UX, var("ut")),
        mul(add(mul(2.0, shift), _M), _M, g),
        mul(sub(mul(const(2.0 - mu), _Y), mul(const(nu), _U)), g),
        mul(0.5, shift, pow_(_UX, 2), g_u),
        mul(const(nu), G),
    )
    Q = mul(2.0, add(_M, shift))
    return ConservedCurrent(f"grad_energy(mu={mu:g},nu={nu:g})", T, phi, Q)


def characteristic_check(
    cur: ConservedCurrent, eq: EquationSpec, policy: SamplingPolicy | None = None
) -> Verdict:
    """Off-shell test of D_t T + D_x Phi - Q * Upsilon = 0 (u arbitrary)."""
    resid = sub(add(d_t(cur.T), d_x(cur.Phi)), mul(cur.Q, upsilon(eq)))
    return Verdict.from_zero(is_zero(resid, policy))


def multiplier_conditions(T: Expr, Q: Expr, eq: EquationSpec) -> tuple[Expr, Expr]:
    """The pair (E_u(D_t T - Q*Upsilon), E_ut(D_t T - Q*Upsilon)) for zero-testing."""
    E = sub(d_t(T), mul(Q, upsilon(eq)))
    return euler_u(E), euler_ut(E)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ConservationReport:
    momentum: Verdict
    h1: Verdict
    grad_energy: GradEnergySolutions
    l2m: Verdict
    weighted_h2: Verdict
    fluxes: tuple = ()

    @property
    def determinate(self) -> bool:
        return (
            self.momentum.conserved is not None
            and self.h1.conserved is not None
            and self.grad_energy.kind != "indeterminate"
            and self.l2m.conserved is not None
            and self.weighted_h2.conserved is not None
        )

    def to_json(self) -> dict:
        return {
            "momentum": self.momentum.to_json(),
            "h1": self.h1.to_json(),
            "grad_energy": self.grad_energy.to_json(),
            "l2m": self.l2m.to_json(),
            "weighted_h2": self.weighted_h2.to_json(),
            "fluxes": [c.to_json() for c in self.fluxes],
        }

    def to_json_str(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)


def _wh2_verdict(sols: GradEnergySolutions, va: ZeroVerdict, vc: ZeroVerdict) -> Verdict:
    """Conserved weighted-H2 norm: some (mu != 2, nu = 0) solves the condition.

    va and vc are the zero tests of the coefficients A and C.
    """
    if va.status == "indeterminate":
        return Verdict(None, va.residual_max, va.witness)
    if va.status == "zero":
        return Verdict.from_zero(vc)
    # A nonzero: at nu=0 the residual (mu-2)*A + C admits at most one mu
    if sols.kind == "line" and abs(sols.direction[1]) < 1e-9:
        # line of solutions with nu fixed; nu must be 0 to qualify
        if abs(sols.nu) < 1e-6:
            return Verdict(True, sols.residual_max)
    if sols.kind == "point" and abs(sols.nu) < 1e-6 and abs(sols.mu - 2.0) > 1e-6:
        return Verdict(True, sols.residual_max)
    return Verdict(False, max(va.residual_max, sols.residual_max))


def classify(eq: EquationSpec, policy: SamplingPolicy | None = None) -> ConservationReport:
    """Run the momentum / H1 / gradient-energy checks and build fluxes.

    The conditions A, B, C are built and zero-tested once, for every
    verdict.  The L2 norm of m corresponds to (mu, nu) = (2, 0) in the
    gradient energy, the weighted H2 norm to some (mu != 2, nu = 0); those
    verdicts are derived from the solution set plus a direct residual test
    and reported indeterminate on any disagreement.
    """
    policy = policy or SamplingPolicy()
    A, B, C = grad_energy_conditions(eq)
    va, vb, vc = (is_zero(e, policy) for e in (A, B, C))
    mom, h1 = Verdict.from_zero(vb), Verdict.from_zero(va)
    sols = _solve_grad_energy(A, B, C, vc, policy)

    l2m_direct = Verdict.from_zero(vc).conserved
    l2m_set = sols.contains(2.0, 0.0) if sols.kind != "indeterminate" else None
    if sols.kind == "indeterminate" or l2m_direct is None or l2m_direct != l2m_set:
        l2m = Verdict(None, vc.residual_max, vc.witness)
    else:
        l2m = Verdict(l2m_direct, vc.residual_max, vc.witness if not l2m_direct else None)

    wh2 = _wh2_verdict(sols, va, vc)

    fluxes = []
    if mom.conserved:
        cur = flux_momentum(eq)
        if cur is not None:
            fluxes.append(cur)
    if h1.conserved:
        cur = flux_h1(eq)
        if cur is not None:
            fluxes.append(cur)
    if l2m.conserved:
        cur = flux_grad_energy(eq, 2.0, 0.0)
        if cur is not None:
            fluxes.append(cur)
    if wh2.conserved and sols.kind in ("line", "plane"):
        cur = flux_grad_energy(eq, 3.0, 0.0)  # representative mu != 2
        if cur is not None:
            fluxes.append(cur)

    return ConservationReport(mom, h1, sols, l2m, wh2, tuple(fluxes))
