"""Travelling-wave toolkit for the singular equation
m_t + ux*u^-3*m + (u^-2*m)_x = 0 and the momentum/H1-conserving family.

Smooth solitary waves of the singular equation satisfy, in the co-moving
coordinate xi = x - c*t,

    U'^2 = U^2 * (b^2 - 1 + s) / (1 + s),   s = sqrt(1 - c U^2),

with shape parameter 0 < b < 1 and speed c > 0, peak at xi = 0 of height
b*sqrt(2-b^2)/sqrt(c).  The quadrature has the closed form

    |xi| = (sqrt(2)/b) * arctanh(sqrt(2) t / b) - 2 * arctanh(t),
    t = sqrt(B/A),  A = 1 + s,  B = b^2 - 1 + s,

which is explicit in y = arctanh(sqrt(2) t / b): with beta = b/sqrt(2),

    |xi| = y/beta - 2*arctanh(beta*tanh(y)),
    U = peak / (cosh(y) * (1 - beta^2 tanh(y)^2)).

|xi| is increasing and convex in y, so Newton in y from an upper bound
descends to the root monotonically, on all nodes at once, and U follows
from y without a further solve (_solitary_U).  Newton stops one step
after every node has converged: its step is at most 2^-26*max(1, y), or
its residual in xi moves ln(U) by at most 2^-53.  It raises at a cap
rather than return an unconverged value.  U comes out within about
2*(1 + ln(peak/U)) ulps, far down the tail included.  The closed form in
U (_xi_of_U) is kept for the ODE cross-check.

Only that profile and the peakon are derived here by hand; Upsilon, the
first integrals and the decay speed are read off conslaw.EquationSpec.
Every current with no explicit x gives a first integral Phi - c*T
(first_integral); the solitary wave's c2 = 2 - b^2 and c1 = c2^2/4 are
those of the singular equation's H1 and L2(m) currents.

Peakons u = a*exp(-|x - c t|) travel with c = 1/a^2.

scipy is imported only by quadrature_crosscheck, on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import conslaw
from . import expr as ex

__all__ = [
    "WaveProfile",
    "SolitaryResiduals",
    "solitary_peak_height",
    "solitary_profile",
    "solitary_ode_residual",
    "quadrature_crosscheck",
    "peakon",
    "first_integral",
    "smooth_solitary_analysis",
]


# Newton steps at most; b = 1 - 2^-52 and 1 - 2^-53 take 24
_NEWTON_CAP = 64
# the 9-point stencils of solitary_ode_residual reach 4 nodes to each side
_FD_HALFWIDTH = 4


def solitary_peak_height(b: float, c: float) -> float:
    """Peak amplitude b*sqrt(2-b^2)/sqrt(c); satisfies 0 < sqrt(c)*peak < 1."""
    _check_bc(b, c)
    return b * math.sqrt(2.0 - b * b) / math.sqrt(c)


def _check_bc(b: float, c: float):
    if not 0.0 < b < 1.0:
        raise ValueError(f"shape parameter b must lie in (0,1), got {b}")
    if not 0.0 < c < math.inf:
        raise ValueError(f"wave speed c must be positive and finite, got {c}")


def _s_of(U, b, c):
    """s = sqrt(1 - c U^2), clipped at 0."""
    return np.sqrt(np.maximum(1.0 - c * np.asarray(U) ** 2, 0.0))


def _xi_of_U(U, b, c):
    """|xi| as a function of U in (0, peak]; the closed-form quadrature.

    xi = (sqrt(2)/b)*arctanh(z) - 2*arctanh(t) with t = sqrt(B/A) and
    z = sqrt(2)t/b, written via logs with the exact factorizations
    1 - t^2 = (2-b^2)/A and 1 - z^2 = (2-b^2)*c*U^2/(A^2 b^2) so the tail
    (z -> 1) is evaluated without cancellation; xi(0) = +inf.
    """
    U = np.asarray(U, dtype=float)
    s = _s_of(U, b, c)
    A = 1.0 + s
    t = np.sqrt(np.maximum(b * b - 1.0 + s, 0.0) / A)
    z = np.sqrt(2.0) * t / b
    with np.errstate(divide="ignore", over="ignore"):
        ath_t = 0.5 * np.log((1.0 + t) ** 2 * A / (2.0 - b * b))
        ath_z = 0.5 * np.log((1.0 + z) ** 2 * A * A * b * b / ((2.0 - b * b) * c * U * U))
    return (np.sqrt(2.0) / b) * ath_z - 2.0 * ath_t


def _uprime_branch(U, xi, b, c):
    """U' from the first-order ODE branch, negative for xi > 0."""
    s = _s_of(U, b, c)
    B = np.maximum(b * b - 1.0 + s, 0.0)
    return -np.sign(xi) * U * np.sqrt(B / (1.0 + s))


def _usecond(U, b, c):
    """U'' = W'(U)/2 for W(U) = U^2 (b^2-1+s)/(1+s)."""
    s = _s_of(U, b, c)
    A = 1.0 + s
    B = b * b - 1.0 + s
    return U * B / A - (2.0 - b * b) * c * U**3 / (2.0 * s * A * A)


@dataclass(frozen=True)
class WaveProfile:
    """Sampled travelling wave, even about its peak at xi = 0."""

    kind: str  # "solitary" | "peakon"
    c: float
    xi: np.ndarray
    U: np.ndarray
    Uprime: np.ndarray
    peak_height: float
    orientation: int = 1
    b: float | None = None  # solitary shape parameter
    a: float | None = None  # peakon amplitude

    def reflected(self) -> "WaveProfile":
        from dataclasses import replace

        return replace(self, U=-self.U, Uprime=-self.Uprime, orientation=-self.orientation)


def solitary_profile(b: float, c: float, xi: np.ndarray) -> WaveProfile:
    """The solitary wave on a xi grid, from the closed form in y = arctanh(z).

    Positive orientation; use .reflected() for the mirror solution.
    U is that of _solitary_U, by Newton in y, to about 2*(1 + ln(peak/U))
    ulps; U' is from the first-order ODE branch.
    """
    U = _solitary_U(b, c, xi)
    xi = np.asarray(xi, dtype=float)
    return WaveProfile(
        kind="solitary",
        c=c,
        b=b,
        xi=xi,
        U=U,
        Uprime=_uprime_branch(U, xi, b, c),
        peak_height=solitary_peak_height(b, c),
    )


def _solitary_U(b: float, c: float, xi: np.ndarray) -> np.ndarray:
    """U(xi) of the solitary wave by Newton in y = arctanh(z), without U'.

    With beta = b/sqrt(2) and t = beta*tanh(y) the closed form reads

        |xi| = y/beta - 2*arctanh(t),   U = peak / (cosh(y) * (1 - t^2)),

    and |xi| is increasing and convex in y, its slope
    (1 - b^2 + t^2) / (beta*(1 - t^2)) rising from (1 - b^2)/beta at y = 0
    to 1/beta.  So |xi|*beta/(1 - b^2) and beta*(|xi| + 2*arctanh(beta))
    both lie at or beyond the root, and Newton from the smaller descends
    to it monotonically and converges quadratically.  It runs on all
    nodes at once, stops once every node has converged, then takes one
    more step; it raises after _NEWTON_CAP steps.  A node has converged
    when its step is at most 2^-26*max(1, y), or when its residual
    xi(y) - |xi| moves ln(U) by at most 2^-53: d ln(U)/d xi = -t, so
    that is |t*(xi(y) - |xi|)| <= 2^-53.  The second rule serves b near
    1 at small y, where the slope (1 - b^2)/beta is at the rounding of
    xi(y) and the steps in y are rounding noise, while U hardly depends
    on y.  On 2e5 values of |xi| from 1e-30 to 1e3 it takes 5 steps,
    the last one included, at b = 0.5, 20 at b = 1 - 1e-9 and 24 at
    b = 1 - 2^-52 and at 1 - 2^-53, the last float below 1.

    y comes out within a few ulps of itself, and ln(U) follows y: against
    a 60-digit inversion, for b from 1e-3 to 1 - 1e-9 and U down to
    1e-300*peak, U is within 2*(1 + ln(peak/U)) ulps.  U is evaluated as
    2*peak*h*h / ((1 + h^4)*(1 - t^2)) with h = e^(-y/2), so no step
    underflows before U does, and it is capped at the peak.  Nodes
    beyond |xi| = 1200/beta, where y > 1200 and U < 2^-1075 for any c
    (peak < 1/sqrt(c) < 2^538), are solved at 1200/beta: U rounds to 0
    there, and y/beta stays finite.
    """
    _check_bc(b, c)
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("solitary profile needs finite xi")
    beta = b / math.sqrt(2.0)
    target = np.abs(xi.ravel())
    np.minimum(target, 1200.0 / beta, out=target)
    y, step, th, t, moved = (np.empty(target.shape) for _ in range(5))
    np.multiply(target, beta / ((1.0 - b) * (1.0 + b)), out=y)
    np.multiply(target, beta, out=step)
    step += 2.0 * beta * math.atanh(beta)
    np.minimum(y, step, out=y)
    last = False
    for _ in range(_NEWTON_CAP):
        # xi(y) - |xi|, in step
        np.tanh(y, out=th)
        th *= beta
        np.arctanh(th, out=step)
        step *= -2.0
        step -= target
        np.multiply(y, 1.0 / beta, out=t)
        step += t
        # what that moves ln(U) by, as d ln(U)/d xi = -beta*tanh(y)
        np.multiply(step, th, out=moved)
        np.abs(moved, out=moved)
        # over the slope, in th: beta*(1 - t^2) / (1 - b^2 + t^2)
        np.square(th, out=th)
        np.add(th, (1.0 - b) * (1.0 + b), out=t)
        np.subtract(1.0, th, out=th)
        th *= beta
        th /= t
        step *= th
        y -= step
        if last:
            break
        np.abs(step, out=step)
        np.maximum(y, 1.0, out=t)
        t *= 2.0**-26
        last = bool(np.all((step <= t) | (moved <= 2.0**-53)))
    else:
        raise RuntimeError(f"solitary profile: Newton in y did not converge in {_NEWTON_CAP} steps")
    # U = 2*peak*h*h / ((1 + h^4)*(1 - t^2)), h = e^(-y/2)
    np.tanh(y, out=th)
    th *= beta
    np.square(th, out=th)
    np.subtract(1.0, th, out=th)
    y *= -0.5
    h = np.exp(y, out=y)
    np.square(h, out=t)
    np.square(t, out=t)
    t += 1.0
    t *= th
    peak = solitary_peak_height(b, c)
    U = np.multiply(h, 2.0 * peak, out=th)
    U *= h
    U /= t
    return np.minimum(U, peak, out=U).reshape(xi.shape)


def peakon(a: float, xi: np.ndarray | None = None) -> WaveProfile:
    """Peaked travelling wave u = a*exp(-|xi|) with speed c = 1/a^2, a positive finite float."""
    c = 1.0 / (a * a) if a * a else math.inf
    if not 0.0 < c < math.inf:
        raise ValueError(f"peakon amplitude a must give a positive finite speed 1/a^2, got a = {a}")
    if xi is None:
        xi = np.linspace(-15.0, 15.0, 3001)
    xi = np.asarray(xi, dtype=float)
    U = a * np.exp(-np.abs(xi))
    return WaveProfile(
        kind="peakon",
        c=c,
        a=a,
        xi=xi,
        U=U,
        Uprime=-np.sign(xi) * U,
        peak_height=abs(a),
        orientation=1 if a > 0 else -1,
    )


# ---------------------------------------------------------------------------
# residual diagnostics


def _implicit_uprime(U, xi, b, c):
    """U' obtained by differentiating the arctanh closed form itself.

    Independent of the ODE branch: d xi/dU goes through t(s(U)) by the
    chain rule on the two arctanh terms, so this detects any error in the
    closed form.
    """
    s = _s_of(U, b, c)
    A = 1.0 + s
    B = np.maximum(b * b - 1.0 + s, 1e-300)
    t = np.sqrt(B / A)
    # 1 - t^2 = (2-b^2)/A and 1 - 2t^2/b^2 = (2-b^2)cU^2/(A^2 b^2) exactly
    one_minus_t2 = (2.0 - b * b) / A
    one_minus_z2 = (2.0 - b * b) * c * U * U / (A * A * b * b)
    dxi_dt = (2.0 / (b * b)) / one_minus_z2 - 2.0 / one_minus_t2
    dt_ds = (2.0 - b * b) / (2.0 * t * A * A)
    ds_dU = -c * U / s
    dxi_dU = dxi_dt * dt_ds * ds_dU
    return -np.sign(xi) / dxi_dU


@dataclass(frozen=True)
class SolitaryResiduals:
    first_order_max: float
    third_order_rms: float
    third_order_max: float
    c1: float
    c1_expected: float
    c2: float
    c2_expected: float
    c1_spread: float
    c2_spread: float
    peak_excluded: bool


def first_integral(cur: conslaw.ConservedCurrent, c: float, U, Up, Upp):
    """The first integral Phi - c*T of a current along u = U(x - c*t).

    On a travelling wave u_t = -c*U', u_tx = -c*U'' and m = U - U'', so
    D_t T + D_x Phi = 0 reads d/dxi (Phi - c*T) = 0.  Phi - c*T is
    evaluated by ex.evaluate at U, U', U'' (floats or 1-D arrays), which
    need not lie on a wave.  A Phi that holds x, as a pole-family
    current's does, gives no first integral: ValueError.
    """
    if ex.X in ex.jet_vars(cur.Phi):
        raise ValueError(f"the {cur.name} current's flux holds x, so Phi - c*T is no first integral")
    U, Up, Upp = (np.asarray(a, dtype=float) for a in (U, Up, Upp))
    point = {"u": U, "ux": Up, "m": U - Upp, "ut": -c * Up, "utx": -c * Upp}
    return ex.evaluate(ex.sub(cur.Phi, ex.mul(c, cur.T)), point)


@cache
def _singular_equation() -> tuple:
    """The singular equation's compiled Upsilon, and its L2(m) and H1 currents, built once per process."""
    eq = conslaw.EquationSpec.from_strings("ux/u^3", "1/u^2")
    return ex.compile_terms(eq.upsilon), (conslaw.flux_grad_energy(eq, 2.0, 0.0), conslaw.flux_h1(eq))


@np.errstate(all="ignore")
def solitary_ode_residual(
    profile: WaveProfile,
    xi_max: float = 15.0,
    dxi: float = 1e-3,
) -> SolitaryResiduals:
    """Residual statistics for a solitary profile.

    (i) first-order: U'^2 - U^2 (b^2-1+s)/(1+s) with U' from the implicit
    derivative of the closed form (not the ODE branch, which would be
    circular);
    (ii) third-order: the singular equation's EquationSpec.upsilon at
    u = U, ux = U', m = U - U'', mx = U' - U''', mt = -c*(U' - U'''), with
    U' and U''' by 8th-order central differences on a fine fresh grid and
    U'' in closed form.  A small peak neighborhood is excluded only if the
    finite-difference noise there exceeds the quoted tolerance.

    Also evaluates the first integrals of the singular equation's H1 and
    L2(m) currents along the profile (first_integral) and compares them
    with c2 = 2 - b^2, c1 = c2^2/4.  A reported value that is not finite,
    as where U^3 overflows at c near 0, raises ValueError.
    """
    if profile.kind != "solitary":
        raise ValueError("residual diagnostics expect a solitary profile")
    b, c = profile.b, profile.c
    upsilon, currents = _singular_equation()
    # (i) on the profile's own grid, away from the exact peak point
    mask = np.abs(profile.xi) > 1e-12
    U, xi = profile.U[mask], profile.xi[mask]
    up = _implicit_uprime(U, xi, b, c)
    s = _s_of(U, b, c)
    r1 = up * up - U * U * (b * b - 1.0 + s) / (1.0 + s)
    first_order_max = float(np.max(np.abs(r1))) if len(r1) else 0.0

    # (ii) fine grid, one-sided range is enough by symmetry
    n = int(round(xi_max / dxi))
    xif = np.arange(-_FD_HALFWIDTH, n + _FD_HALFWIDTH + 1) * dxi
    Uf = _solitary_U(b, c, np.abs(xif))
    # 8th-order central difference weights
    w1 = np.array([3, -32, 168, -672, 0, 672, -168, 32, -3], dtype=float) / (840 * dxi)
    w3 = np.array([-7, 72, -338, 488, 0, -488, 338, -72, 7], dtype=float) / (240 * dxi**3)
    idx = np.arange(_FD_HALFWIDTH, n + _FD_HALFWIDTH + 1)
    offsets = range(-_FD_HALFWIDTH, _FD_HALFWIDTH + 1)
    Up1 = sum(w * Uf[idx + j] for j, w in zip(offsets, w1))
    Up3 = sum(w * Uf[idx + j] for j, w in zip(offsets, w3))
    Uc = Uf[idx]
    xic = xif[idx]
    Up1 = np.where(np.abs(xic) < 0.5 * dxi, 0.0, Up1)
    mx = Up1 - Up3
    point = {"u": Uc, "ux": Up1, "m": Uc - _usecond(Uc, b, c), "mx": mx, "mt": -c * mx}
    r3 = sum(upsilon(point))
    peak_zone = np.abs(xic) < 0.05
    peak_excluded = bool(np.any(np.abs(r3[peak_zone]) > 1e-6))
    if peak_excluded:
        r3 = r3[~peak_zone]

    # first integrals on a moderate grid away from the tail underflow
    wave = solitary_profile(b, c, np.linspace(0.05, min(xi_max, 10.0), 400))
    c1_vals, c2_vals = (
        first_integral(cur, c, wave.U, wave.Uprime, _usecond(wave.U, b, c))
        for cur in currents
    )
    c2_expected = 2.0 - b * b
    res = SolitaryResiduals(
        first_order_max=first_order_max,
        third_order_rms=float(np.sqrt(np.mean(r3 * r3))),
        third_order_max=float(np.max(np.abs(r3))),
        c1=float(np.mean(c1_vals)),
        c1_expected=0.25 * c2_expected**2,
        c2=float(np.mean(c2_vals)),
        c2_expected=c2_expected,
        c1_spread=float(np.ptp(c1_vals)),
        c2_spread=float(np.ptp(c2_vals)),
        peak_excluded=peak_excluded,
    )
    bad = [name for name, v in vars(res).items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"solitary residuals at b = {b:g}, c = {c:g} are not finite: {', '.join(bad)}")
    return res


def quadrature_crosscheck(
    b: float,
    c: float,
    xi_lo: float = 0.1,
    xi_hi: float = 10.0,
    n_eval: int = 400,
    start_offset: float = 1e-6,
) -> float:
    """Max discrepancy between the closed form and direct ODE integration.

    Integrates dU/dxi = -U*sqrt((b^2-1+s)/(1+s)) outward from
    U = peak*(1 - start_offset) (anchored at the closed form's xi there,
    which avoids the square-root branch point at the peak) and compares
    pointwise on [xi_lo, xi_hi].
    """
    from scipy.integrate import solve_ivp  # the package's only use of scipy

    _check_bc(b, c)
    umax = solitary_peak_height(b, c)

    offset = start_offset
    for _ in range(6):
        u0 = umax * (1.0 - offset)
        xi0 = float(_xi_of_U(np.array([u0]), b, c)[0])
        sol = solve_ivp(
            lambda xi, y: _uprime_branch(y, xi, b, c), [xi0, xi_hi * 1.02], [u0],
            method="DOP853", rtol=1e-12, atol=1e-15, dense_output=True,
        )
        if sol.success:
            break
        offset *= 10.0  # integrator stalled at the branch point; start further out
    else:
        raise RuntimeError("direct quadrature failed to start near the peak")
    xis = np.linspace(max(xi_lo, xi0), xi_hi, n_eval)
    u_quad = sol.sol(xis)[0]
    u_closed = _solitary_U(b, c, xis)
    return float(np.max(np.abs(u_quad - u_closed)))


# ---------------------------------------------------------------------------
# momentum/H1-conserving (Hamiltonian-structure) family
# f = ux*f1(u^2-ux^2), g = u*f1(u^2-ux^2) + g1(u^2-ux^2)


@dataclass(frozen=True)
class SolitaryExistence:
    possible: bool
    fixed_speed: float | None
    reason: str


def smooth_solitary_analysis(eq: conslaw.EquationSpec, c: float) -> SolitaryExistence:
    """Decay analysis for smooth solitary waves of the Hamiltonian family.

    eq is in the family f = ux*f1(y), g = u*f1(y) + g1(y), y = u^2 - ux^2,
    when flux_momentum and flux_h1 both build a current whose flux holds
    no x; else ValueError.  Their first integrals (first_integral) satisfy
    h1 - 2*U*mom = (U'^2 - U^2)(U*F1t + G1t - c), with F1t, G1t the
    antiderivatives in y = U^2 - U'^2 of f1 and g1 from 0, over y.  With
    decaying tails both constants vanish, and U'^2 = U^2 admits only
    U = 0, so U -> 0 requires c = g1(0) = g(0, 0): a smooth solitary wave
    could at best exist at that one speed, and none exists when it is 0.
    """
    currents = {"momentum": conslaw.flux_momentum(eq), "H1": conslaw.flux_h1(eq)}
    missing = [name for name, cur in currents.items() if cur is None or ex.X in ex.jet_vars(cur.Phi)]
    if missing:
        raise ValueError(f"not in the Hamiltonian family: no {' and no '.join(missing)} current free of x")
    g0 = ex.evaluate(eq.bound_g, {"u": 0.0, "ux": 0.0})
    if not math.isfinite(g0):
        raise ValueError(f"g(0, 0) = {g0}: the decay speed is not finite")
    if g0 == 0.0:
        return SolitaryExistence(False, None, "g(0, 0) = 0: no smooth solitary wave at any speed")
    if abs(g0 - c) <= 1e-12 * max(1.0, abs(c)):
        return SolitaryExistence(True, g0, f"decay is consistent only at the fixed speed c = g(0, 0) = {g0:g}")
    return SolitaryExistence(False, g0, f"decay requires c = g(0, 0) = {g0:g}, but c = {c:g}")
