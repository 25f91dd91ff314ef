"""Travelling-wave toolkit for the singular equation
m_t + ux*u^-3*m + (u^-2*m)_x = 0 and the momentum/H1-conserving family.

Smooth solitary waves of the singular equation satisfy, in the co-moving
coordinate xi = x - c*t,

    U'^2 = U^2 * (b^2 - 1 + s) / (1 + s),   s = sqrt(1 - c U^2),

with shape parameter 0 < b < 1 and speed c > 0, peak at xi = 0 of height
b*sqrt(2-b^2)/sqrt(c).  The quadrature has the closed form

    |xi| = (sqrt(2)/b) * arctanh(sqrt(2) t / b) - 2 * arctanh(t),
    t = sqrt(B/A),  A = 1 + s,  B = b^2 - 1 + s,

which is inverted here by bisection in U (|xi| is strictly decreasing in
U, and bisection stays robust at the peak where d xi/dU diverges).  All
nodes start from (0, peak) and halve hi until xi(peak*2^-k) > |xi|, so
these leading halvings are shared: the quadrature is evaluated once on
the dyadic points peak*2^-k and a sorted search places each node at its
first step up, far down the tail included.  From there a Newton estimate
of the root, in y = arctanh(sqrt(2) t / b) where |xi| is nearly linear,
decides every step whose mid lies well outside the rounding error of the
quadrature, and the quadrature is evaluated only on the mids near the
root (17 per node for the transport initial data, not 56); a
certificate sends a node whose estimate misled it back to plain
bisection, so every node gets the bits of plain bisection.  The
bisection runs in place, in arrays allocated once per block of nodes: a
step that made its own ~30 temporaries let glibc trim the top of a small
heap and fault it back in, thousands of page faults per solitary initial
datum.  It selects without masks, too: a masked copy that follows a
data-dependent pattern costs a branch misprediction per element.
Peakons u = a*exp(-|x - c t|) travel with c = 1/a^2.

scipy is imported only by quadrature_crosscheck, on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WaveProfile",
    "SolitaryResiduals",
    "solitary_peak_height",
    "solitary_profile",
    "solitary_ode_residual",
    "quadrature_crosscheck",
    "peakon",
    "first_integral_l2",
    "first_integral_h1",
    "hamiltonian_first_integrals",
    "smooth_solitary_analysis",
]


# bisection steps per node, from (0, peak)
_STEPS = 110
# nodes bisected at a time
_BLOCK = 16384
# the certificate needs the bisection to end in a bracket much narrower
# than rho*U: from a first-step-up bracket [U, 2U], 48 steps end in one
# narrower than U*2^-47 (each halves it, up to an ulp); _walk takes no
# step for a node with fewer steps left (U < peak*2^-61)
_PREDICT_LEFT = 48
# Newton steps of the estimate
_NEWTON = 6


def solitary_peak_height(b: float, c: float) -> float:
    """Peak amplitude b*sqrt(2-b^2)/sqrt(c); satisfies 0 < sqrt(c)*peak < 1."""
    _check_bc(b, c)
    return b * math.sqrt(2.0 - b * b) / math.sqrt(c)


def _check_bc(b: float, c: float):
    if not 0.0 < b < 1.0:
        raise ValueError(f"shape parameter b must lie in (0,1), got {b}")
    if not 0.0 < c < math.inf:
        raise ValueError(f"wave speed c must be positive and finite, got {c}")


def _s_of(U, b, c, out=None):
    """s = sqrt(1 - c U^2), clipped at 0; into out if given."""
    if out is None:
        out = np.empty(np.shape(U))
    np.square(U, out=out)
    np.multiply(c, out, out=out)
    np.subtract(1.0, out, out=out)
    np.maximum(out, 0.0, out=out)
    return np.sqrt(out, out=out)


def _xi_of_U(U, b, c, work=None):
    """|xi| as a function of U in (0, peak]; the closed-form quadrature.

    xi = (sqrt(2)/b)*arctanh(z) - 2*arctanh(t) with t = sqrt(B/A) and
    z = sqrt(2)t/b, written via logs with the exact factorizations
    1 - t^2 = (2-b^2)/A and 1 - z^2 = (2-b^2)*c*U^2/(A^2 b^2) so the tail
    (z -> 1) is evaluated without cancellation; xi(0) = +inf.

    Every operation runs in place in four float arrays of U's shape:
    those of work, if given, else fresh ones.  With work the result is
    one of its arrays, valid until work is used again.
    """
    U = np.asarray(U, dtype=float)
    s, A, z, den = work if work is not None else (np.empty(U.shape) for _ in range(4))
    _s_of(U, b, c, out=s)
    np.add(1.0, s, out=A)
    t = np.add(b * b - 1.0, s, out=s)  # B, then t = sqrt(B/A)
    np.maximum(t, 0.0, out=t)
    np.divide(t, A, out=t)
    np.sqrt(t, out=t)
    np.multiply(np.sqrt(2.0), t, out=z)
    np.divide(z, b, out=z)
    # arctanh(t) = 0.5*log((1+t)^2 A / (2-b^2)), in t's array
    ath_t = np.add(1.0, t, out=t)
    np.square(ath_t, out=ath_t)
    ath_t *= A
    ath_t /= 2.0 - b * b
    np.log(ath_t, out=ath_t)
    ath_t *= 0.5
    # arctanh(z) = 0.5*log((1+z)^2 A^2 b^2 / ((2-b^2) c U^2)), in z's array
    np.multiply((2.0 - b * b) * c, U, out=den)
    den *= U
    ath_z = np.add(1.0, z, out=z)
    np.square(ath_z, out=ath_z)
    ath_z *= A
    ath_z *= A
    ath_z *= b
    ath_z *= b
    with np.errstate(divide="ignore"):
        ath_z /= den
        np.log(ath_z, out=ath_z)
    ath_z *= 0.5
    ath_z *= np.sqrt(2.0) / b
    ath_t *= 2.0
    return np.subtract(ath_z, ath_t, out=ath_z)


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
    """Invert the closed-form quadrature on a xi grid by bisection in U.

    Positive orientation; use .reflected() for the mirror solution.
    U is that of _solitary_U; U' is from the first-order ODE branch.
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
    """U(xi) of the solitary wave by bisection in U, without U'.

    Bisection is run to ~1e-15 relative so downstream residual tests see
    only the accuracy of the closed form itself.  The result is that of
    _STEPS steps from (0, peak) on every node, bit for bit, at less cost:

    * every node starts with the same halvings of hi, taken while
      |xi| >= xi(peak*2^-k); one evaluation of the quadrature on those
      dyadic mids places every node at its first step up;
    * a Newton estimate r of the root (_estimate) decides, without
      evaluating the quadrature, every step whose mid lies farther than
      4*_rounding_bound(b)*r from r (_walk); the quadrature is evaluated
      only on the mids near r, and a certificate (_predicted_sides_hold)
      sends a node whose estimate was wrong back to its first step up;
    * a step depends only on a node's (lo, hi) and |xi|, so a node whose
      lo and hi are adjacent floats sits at its fixed point and leaves
      the loop (checked every few steps), as does a node whose steps are
      spent.  For the same reason the nodes are bisected _BLOCK at a
      time, which bounds the working memory and not the result.
    """
    _check_bc(b, c)
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("solitary profile needs finite xi")
    umax = solitary_peak_height(b, c)
    target = np.abs(xi).ravel()
    # ladder[k] = umax halved k times, as the bisection halves it; the
    # trailing 0 is the lo of a node that never steps up
    ladder = np.append(np.multiply.accumulate(np.r_[umax, np.full(_STEPS, 0.5)]), 0.0)
    # first step up: the first k with xi(ladder[k+1]) > |xi|; the running
    # max makes that a sorted search without assuming xi(U) monotone
    # there, and a node that never steps up gets k = _STEPS
    rungs = np.maximum.accumulate(_xi_of_U(ladder[1:-1], b, c))
    rho = _rounding_bound(b)
    U = np.empty_like(target)
    for start in range(0, target.size, _BLOCK):
        block = target[start:start + _BLOCK]
        out = U[start:start + _BLOCK]
        first_up = np.searchsorted(rungs, block, side="right")
        lo, hi = ladder[first_up + 1], ladder[first_up]
        left = _STEPS - 1 - first_up
        # the certificate passes where the estimate is within about rho of
        # the result; a converged estimate is within a few ulps of the root
        _walk(lo, hi, left, _estimate(block, b, c), 4.0 * rho)
        _bisect(block, lo, hi, left, b, c, out)
        redo = np.flatnonzero(~_predicted_sides_hold(
            out, ladder[first_up + 1], ladder[first_up], lo, hi, rho))
        if redo.size:
            first_up = first_up[redo]
            again = np.empty(redo.size)
            _bisect(block[redo], ladder[first_up + 1], ladder[first_up], _STEPS - 1 - first_up,
                    b, c, again)
            out[redo] = again
    U[target == 0.0] = umax
    return U.reshape(xi.shape)


def _rounding_bound(b):
    """rho, a bound on the error of the computed closed form, relative in U.

    _xi_of_U(U) lies between xi(U(1+rho)) and xi(U(1-rho)) for U in
    [peak*2^-62, peak], the brackets of the nodes _walk takes steps for.
    A first-order count of the roundings gives about 0.3/b^2 ulps (B =
    b^2-1+s carries an absolute error of an ulp or so, across a range
    of width b^2 in s) plus 0.75 ulps per halving of U below the peak
    (the logs of the tail).  Against a 120-digit evaluation (1800 points
    for each of 12 values of b from 0.001 to 0.9999) the largest error
    seen is 0.4/b^2 ulps for b <= 0.1 and 66 ulps above;
    tests/test_twave.py checks the bound.  256 + 4/b^2 ulps is at least
    5 times either.
    """
    return (256.0 + 4.0 / (b * b)) * 2.0**-52


def _estimate(target, b, c):
    """Newton estimate of the root U of xi(U) = target, per node.

    In y = arctanh(z), with beta = b/sqrt(2) and t = beta*tanh(y),

        xi = y/beta - 2*arctanh(t),   U = peak / (cosh(y) * (1 - t^2)),

    and xi is increasing and convex in y, its slope rising from
    1/beta - 2*beta at y = 0 to 1/beta.  So target/(1/beta - 2*beta) and
    beta*(target + 2*arctanh(beta)) both lie at or beyond the root, and
    Newton from the smaller descends to it monotonically, and converges
    quadratically: after a step of 2^-26 or less, y is off by about an
    ulp.  Newton stops when every step is that small, after _NEWTON steps
    at most; a node whose last step is larger gets NaN, and is bisected as
    if it had no estimate.
    """
    beta = b / math.sqrt(2.0)
    y = np.divide(target, 1.0 / beta - 2.0 * beta)
    f, th, t = (np.empty(target.shape) for _ in range(3))
    np.multiply(target, beta, out=f)
    f += 2.0 * beta * math.atanh(beta)
    np.minimum(y, f, out=y)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON):
            np.tanh(y, out=th)
            np.multiply(th, beta, out=t)
            np.arctanh(t, out=f)
            # dxi/dy = 1/beta - 2*beta*(1 - tanh(y)^2)/(1 - t^2), in th
            np.square(th, out=th)
            np.subtract(1.0, th, out=th)
            np.square(t, out=t)
            np.subtract(1.0, t, out=t)
            np.divide(th, t, out=th)
            th *= -2.0 * beta
            th += 1.0 / beta
            # xi(y) - target, in f, then the Newton step
            f *= -2.0
            f -= target
            np.multiply(y, 1.0 / beta, out=t)
            f += t
            np.divide(f, th, out=f)
            y -= f
            np.abs(f, out=f)
            if np.all(f <= 2.0**-26):
                break
        np.tanh(y, out=th)
        th *= beta
        np.square(th, out=th)
        np.subtract(1.0, th, out=th)
        np.cosh(y, out=t)
        t *= th
        np.divide(solitary_peak_height(b, c), t, out=t)
    t[~(f <= 2.0**-26)] = np.nan
    return t


def _walk(lo, hi, left, r, margin):
    """The bisection steps that the estimate r decides, in place on lo, hi and left.

    A step goes up (mid becomes lo) where mid < r*(1 - margin) and down
    where mid > r*(1 + margin), the sides bisection takes if r is within
    margin of the root.  A node whose mid falls between stops there: its
    bracket and so its mid no longer move.  A node with a NaN estimate or
    fewer than _PREDICT_LEFT steps left takes no step.
    After the steps below every bracket around r is narrower than
    margin*r.  With s in {0, 1} and 0 <= lo <= mid <= hi, the updates
    max(lo, s*mid) and min(hi, mid + s*hi) select exactly.
    """
    steps = math.ceil(-math.log2(margin)) + 1
    r_up = r * (1.0 - margin)
    r_down = r * (1.0 + margin)
    no_step = np.isnan(r) | (left < _PREDICT_LEFT)
    r_up[no_step] = np.nan
    r_down[no_step] = np.inf
    width = hi - lo
    mid, s = np.empty(lo.shape), np.empty(lo.shape)
    for _ in range(steps):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.less(mid, r_up, out=s)
        s *= mid
        np.maximum(lo, s, out=lo)
        np.less_equal(mid, r_down, out=s)
        s *= hi
        s += mid
        np.minimum(hi, s, out=hi)
    # each step halves the width up to the rounding of mid, 2^-52 of the
    # first width at most; so after j <= 43 steps (margin >= 2^-42) the
    # log2 of the first width over the width is j within 0.01
    width /= hi - lo
    left -= np.rint(np.log2(width)).astype(left.dtype)


def _predicted_sides_hold(U, lo0, hi0, lo, hi, rho):
    """Whether every step _walk took is the one plain bisection takes there.

    lo0, hi0 are a node's first-step-up bracket, lo, hi the bracket _walk
    left, and U the result of bisecting on from (lo, hi): the midpoint of
    a final bracket narrower than U*2^-47 (_PREDICT_LEFT).  If lo > lo0
    and lo <= U*(1 - 3*rho), the lower end of that final bracket lies
    above lo, so it is a mid where the evaluated quadrature exceeded |xi|,
    and by the bound rho (_rounding_bound) the root exceeds
    U*(1 - rho - 2^-47).  Every mid where _walk stepped up lies at or
    below lo, so xi(mid*(1 + rho)) > |xi| there and bisection steps up as
    well.  Steps down are checked alike, by hi >= U*(1 + 3*rho).  A wrong
    estimate leaves the root outside (lo, hi); U then ends next to lo or
    hi, and the check fails.
    """
    up_ok = (lo == lo0) | (lo <= U * (1.0 - 3.0 * rho))
    down_ok = (hi == hi0) | (hi >= U * (1.0 + 3.0 * rho))
    return up_ok & down_ok


def _bisect(target, lo, hi, left, b, c, out):
    """Bisect U at |xi| = target in (lo, hi), `left` steps still to take, into out.

    lo, hi and left are read, not changed.  The nodes still moving are
    kept in the leading entries of arrays allocated here once, in order
    of their budget, so that the nodes whose steps are spent are a
    leading slice.  Every step runs in place
    and without a mask: a masked copy or a boolean-mask gather that
    follows a data-dependent pattern is slow.
    """
    live = np.argsort(left, kind="stable")
    t_live, lo, hi, left = target[live], lo[live], hi[live], left[live]
    n = live.size
    mid, s, tmp = (np.empty(n) for _ in range(3))
    work = np.empty((4, n))
    same, at_hi = (np.empty(n, dtype=bool) for _ in range(2))
    for step in range(_STEPS):
        spent = int(np.searchsorted(left, step, side="right"))
        if spent:
            out[live[:spent]] = 0.5 * (lo[:spent] + hi[:spent])
            live, t_live, lo, hi, left, mid, s, tmp, same, at_hi = (
                a[spent:] for a in (live, t_live, lo, hi, left, mid, s, tmp, same, at_hi))
            work = work[:, spent:]
        if step and step % 8 == 0:
            # `same` marks the nodes at their fixed point
            gone = np.flatnonzero(same)
            if gone.size:
                out[live[gone]] = 0.5 * (lo[gone] + hi[gone])
                stay = np.flatnonzero(np.logical_not(same, out=same))
                n = stay.size
                for a in (live, t_live, lo, hi, left):
                    a[:n] = a[stay]
                live, t_live, lo, hi, left, mid, s, tmp, same, at_hi = (
                    a[:n] for a in (live, t_live, lo, hi, left, mid, s, tmp, same, at_hi))
                work = work[:, :n]
        if not live.size:
            break
        np.add(lo, hi, out=mid)
        mid *= 0.5
        if (step + 1) % 8 == 0:
            # mid equals an end only where lo and hi are adjacent floats;
            # every later step leaves 0.5*(lo + hi) equal to this mid
            np.equal(mid, lo, out=same)
            np.equal(mid, hi, out=at_hi)
            same |= at_hi
        # xi(mid) > |xi|: mid lies below the root and becomes lo, else hi;
        # with s in {0, 1} and 0 <= lo <= mid <= hi both updates select exactly
        np.greater(_xi_of_U(mid, b, c, work), t_live, out=s)
        np.multiply(mid, s, out=tmp)
        np.maximum(lo, tmp, out=lo)
        np.multiply(hi, s, out=tmp)
        tmp += mid
        np.minimum(hi, tmp, out=hi)


def peakon(a: float, xi: np.ndarray | None = None) -> WaveProfile:
    """Peaked travelling wave u = a*exp(-|xi|) with speed c = 1/a^2."""
    if a == 0.0 or not math.isfinite(a):
        raise ValueError(f"peakon amplitude must be nonzero and finite, got {a}")
    if xi is None:
        xi = np.linspace(-15.0, 15.0, 3001)
    xi = np.asarray(xi, dtype=float)
    U = a * np.exp(-np.abs(xi))
    return WaveProfile(
        kind="peakon",
        c=1.0 / (a * a),
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


def first_integral_l2(U, Upp, c):
    """Co-moving flux of the m^2 density: (U - U'')^2 (1/U^2 - c).

    Constant along travelling waves; equals c2^2/4 = (2-b^2)^2/4 for the
    decaying solitary wave.
    """
    return (U - Upp) ** 2 * (1.0 / U**2 - c)


def first_integral_h1(U, Up, Upp, c):
    """-c(U^2 + U'^2) + 2cUU'' + 2(U - U'')/U; constant (= c2 = 2 - b^2)."""
    return -c * (U * U + Up * Up) + 2.0 * c * U * Upp + 2.0 * (U - Upp) / U


def solitary_ode_residual(
    profile: WaveProfile,
    xi_max: float = 15.0,
    dxi: float = 1e-3,
    fd_halfwidth: int = 4,
) -> SolitaryResiduals:
    """Residual statistics for a solitary profile.

    (i) first-order: U'^2 - U^2 (b^2-1+s)/(1+s) with U' from the implicit
    derivative of the closed form (not the ODE branch, which would be
    circular);
    (ii) third-order: -c(U'-U''') + U'(U-U'')U^-3 + ((U-U'')U^-2)' with
    all derivatives from 8th-order central finite differences on a fine
    fresh grid.  A small peak neighborhood is excluded only if the
    finite-difference noise there exceeds the quoted tolerance.

    Also evaluates both first integrals along the profile and compares
    with c2 = 2 - b^2, c1 = c2^2/4.
    """
    if profile.kind != "solitary":
        raise ValueError("residual diagnostics expect a solitary profile")
    b, c = profile.b, profile.c

    # (i) on the profile's own grid, away from the exact peak point
    mask = np.abs(profile.xi) > 1e-12
    U, xi = profile.U[mask], profile.xi[mask]
    up = _implicit_uprime(U, xi, b, c)
    s = _s_of(U, b, c)
    r1 = up * up - U * U * (b * b - 1.0 + s) / (1.0 + s)
    first_order_max = float(np.max(np.abs(r1))) if len(r1) else 0.0

    # (ii) fine grid, one-sided range is enough by symmetry
    n = int(round(xi_max / dxi))
    xif = np.arange(-fd_halfwidth, n + fd_halfwidth + 1) * dxi
    Uf = _solitary_U(b, c, np.abs(xif))
    # 8th-order central difference weights
    w1 = np.array([3, -32, 168, -672, 0, 672, -168, 32, -3], dtype=float) / (840 * dxi)
    w3 = np.array([-7, 72, -338, 488, 0, -488, 338, -72, 7], dtype=float) / (240 * dxi**3)
    idx = np.arange(fd_halfwidth, n + fd_halfwidth + 1)
    Up1 = sum(w * Uf[idx + j] for j, w in zip(range(-4, 5), w1))
    Up3 = sum(w * Uf[idx + j] for j, w in zip(range(-4, 5), w3))
    Uc = Uf[idx]
    Upp = _usecond(Uc, b, c)
    xic = xif[idx]
    Up1 = np.where(np.abs(xic) < 0.5 * dxi, 0.0, Up1)
    r3 = -c * (Up1 - Up3) + Up1 * (Uc - Upp) / Uc**3 + (
        (Up1 - Up3) / Uc**2 - 2.0 * Up1 * (Uc - Upp) / Uc**3
    )
    peak_zone = np.abs(xic) < 0.05
    peak_excluded = False
    if np.any(np.abs(r3[peak_zone]) > 1e-6):
        r3 = r3[~peak_zone]
        peak_excluded = True
    third_rms = float(np.sqrt(np.mean(r3 * r3)))
    third_max = float(np.max(np.abs(r3)))

    # first integrals on a moderate grid away from the tail underflow
    xig = np.linspace(0.05, min(xi_max, 10.0), 400)
    Ug = _solitary_U(b, c, xig)
    Upg = _uprime_branch(Ug, xig, b, c)
    Uppg = _usecond(Ug, b, c)
    c1_vals = first_integral_l2(Ug, Uppg, c)
    c2_vals = first_integral_h1(Ug, Upg, Uppg, c)
    c2_expected = 2.0 - b * b
    c1_expected = 0.25 * c2_expected**2
    return SolitaryResiduals(
        first_order_max=first_order_max,
        third_order_rms=third_rms,
        third_order_max=third_max,
        c1=float(np.mean(c1_vals)),
        c1_expected=c1_expected,
        c2=float(np.mean(c2_vals)),
        c2_expected=c2_expected,
        c1_spread=float(np.ptp(c1_vals)),
        c2_spread=float(np.ptp(c2_vals)),
        peak_excluded=peak_excluded,
    )


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

    def rhs(xi, y):
        U = y[0]
        s = math.sqrt(max(1.0 - c * U * U, 0.0))
        B = max(b * b - 1.0 + s, 0.0)
        return [-U * math.sqrt(B / (1.0 + s))]

    offset = start_offset
    for _ in range(6):
        u0 = umax * (1.0 - offset)
        xi0 = float(_xi_of_U(np.array([u0]), b, c)[0])
        sol = solve_ivp(
            rhs, [xi0, xi_hi * 1.02], [u0],
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


def _poly_eval(coeffs, y):
    out = np.zeros_like(np.asarray(y, dtype=float))
    for k in range(len(coeffs) - 1, -1, -1):
        out = out * y + coeffs[k]
    return out


def hamiltonian_first_integrals(f1_coeffs, g1_coeffs, U, Up, Upp, c):
    """Evaluate the co-moving first integrals along travelling-wave data.

    f1, g1 are polynomial coefficient sequences (low order first) in the
    argument y = U^2 - U'^2.  Returns the momentum first integral (its
    constant c1), the H1 first integral (constant c2), and the combined
    expression (U'^2 - U^2)(U*F1t + G1t - c), which equals c2 - 2*c1*U
    along any travelling wave; F1t, G1t are the term-wise slope functions
    F1/y, G1/y.  Decaying solitary tails force c1 = c2 = 0, making the
    combined expression vanish identically.
    """
    U = np.asarray(U, dtype=float)
    Up = np.asarray(Up, dtype=float)
    Upp = np.asarray(Upp, dtype=float)
    y = U * U - Up * Up
    f1 = _poly_eval(f1_coeffs, y)
    g1 = _poly_eval(g1_coeffs, y)
    F1 = y * _poly_eval([ck / (k + 1.0) for k, ck in enumerate(f1_coeffs)], y)
    G1 = y * _poly_eval([ck / (k + 1.0) for k, ck in enumerate(g1_coeffs)], y)
    F1t = _poly_eval([ck / (k + 1.0) for k, ck in enumerate(f1_coeffs)], y)
    G1t = _poly_eval([ck / (k + 1.0) for k, ck in enumerate(g1_coeffs)], y)
    mom = -c * (U - Upp) + 0.5 * F1 + (U - Upp) * (U * f1 + g1)
    h1 = -c * (U * U + Up * Up) + 2.0 * c * U * Upp - G1 + 2.0 * U * (U - Upp) * (U * f1 + g1)
    comb = (Up * Up - U * U) * (U * F1t + G1t - c)
    return mom, h1, comb


@dataclass(frozen=True)
class SolitaryExistence:
    possible: bool
    fixed_speed: float | None
    reason: str


def smooth_solitary_analysis(f1_coeffs, g1_coeffs, c: float) -> SolitaryExistence:
    """Decay analysis for smooth solitary waves of the Hamiltonian family.

    With decaying tails both first-integral constants vanish, forcing
    (U'^2 - U^2)(U*F1t + G1t - c) = 0.  U'^2 = U^2 admits only U = 0, and
    the second factor at U -> 0 requires g1(0) = c, so a smooth solitary
    wave could at best exist at that one fixed speed, and none exists when
    g1(0) = 0.
    """
    g10 = float(g1_coeffs[0]) if len(g1_coeffs) else 0.0
    if g10 == 0.0:
        return SolitaryExistence(False, None, "g1(0) = 0: no smooth solitary wave at any speed")
    if abs(g10 - c) <= 1e-12 * max(1.0, abs(c)):
        return SolitaryExistence(
            True, g10, f"decay is consistent only at the fixed speed c = g1(0) = {g10:g}"
        )
    return SolitaryExistence(
        False, g10, f"decay requires c = g1(0) = {g10:g}, but c = {c:g}"
    )
