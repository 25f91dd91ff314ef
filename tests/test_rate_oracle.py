"""A quadrature oracle for the verdicts: the rates of the conserved integrals on a periodic grid.

It uses f and g on the grid alone, as the solver does: no Euler operator,
no m-split, no sampler and no symbolic derivative.  For smooth periodic
data m = u - u_xx with min u > max |u_x| (clear of every singular locus)
it forms m_t = -(f*m + D_x(g*m)) spectrally and takes, by the trapezoid
rule, the rates of M = int u, H1 = int u^2 + u_x^2 and L2m = int m^2:
int m_t, int 2u*m_t and int 2m*m_t.  The trapezoid rule is exponentially
accurate for periodic analytic integrands (Trefethen & Weideman, SIAM
Rev. 56 (2014) 385), so a conserved integral reads rounding.  A rate is
read relative to the integral of the magnitudes of its two parts.

The thresholds are set from the gap measured on the equations below,
6 data each: conserved laws read at most 1.47e-16, laws that are not
conserved at least 1.29e-5.  The momentum of a pole-family member
f = ux*f1(y) + f0*u/y, y = u^2 - u_x^2, has a local conservation law,
but f*m is a total derivative plus the constant f0, so int u drifts at
exactly -f0*L on a periodic domain of length L; its verdict reads that
drift to at most 2.04e-16 of the rate's scale, and at least 0.33 away
from zero.  The weighted H2 norm at mu != 2 is conserved when
R_L2m + (mu-2)*R_H1 vanishes on every datum for one mu; the best mu
leaves a residual of at most 3.6e-17 where it does, and of at least
1.9e-6 where it does not.
"""

import importlib
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from peakonlaws import conslaw
from peakonlaws import expr as ex
from peakonlaws.conslaw import EquationSpec, classify

from test_conslaw import GOLDEN_EQUATIONS

CONSERVED = 1.5e-16  # a conserved law reads at most this
NOT_CONSERVED = 1.2e-5  # a law that is not conserved reads at least this
POLE_DRIFT = 2.1e-16  # a pole member's momentum reads -f0*L to this
NOT_CONSERVED_FIT = 1.9e-6  # the best weighted-H2 mu leaves at least this where none is conserved
POLE = "+u/(u^2-ux^2)"  # the pole term of the families, f0 = 1

N, L = 256, 2.0 * np.pi
X = np.arange(N) * (L / N)
IK = 1j * np.fft.rfftfreq(N, d=L / N) * 2.0 * np.pi


def _verdict_equations() -> list:
    """The 7 reference equations and 108 family members of the verdicts benchmark, seeds 20261017, 7, 11."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    cases = [c for seed in (20261017, 7, 11) for c in workloads.reference_cases() + workloads.family_cases(seed)]
    return [(c.f, c.g) for c in cases]


def _data(rng) -> tuple:
    """u = 1.2 + sum_{j <= 3} a_j cos(j x + phi_j), |a_j| <= 0.12, with u_x and m = u - u_xx exact."""
    a, phase = rng.uniform(-0.12, 0.12, 3), rng.uniform(0.0, 2.0 * np.pi, 3)
    j = np.arange(1, 4)[:, None]
    arg = j * X + phase[:, None]
    u = 1.2 + (a[:, None] * np.cos(arg)).sum(axis=0)
    ux = (-j * a[:, None] * np.sin(arg)).sum(axis=0)
    uxx = (-j * j * a[:, None] * np.cos(arg)).sum(axis=0)
    return u, ux, u - uxx


DATA = [_data(np.random.default_rng(5 + d)) for d in range(6)]


def _rates(eq: EquationSpec, u, ux, m) -> dict:
    """{integral: (rate, scale)} for M, H1 and L2m at one datum."""
    env = {"u": u, "ux": ux}
    fm = np.broadcast_to(ex.evaluate(eq.bound_f, env), (N,)) * m
    flux = np.fft.irfft(IK * np.fft.rfft(np.broadcast_to(ex.evaluate(eq.bound_g, env), (N,)) * m), n=N)
    out = {}
    for name, q in (("momentum", np.ones(N)), ("h1", 2.0 * u), ("l2m", 2.0 * m)):
        out[name] = (-(L / N) * (np.sum(q * fm) + np.sum(q * flux)),
                     (L / N) * (np.sum(np.abs(q * fm)) + np.sum(np.abs(q * flux))))
    return out


def _reading(rates: list, name: str, drift: float = 0.0) -> float:
    """The largest |rate - drift| / scale of one integral over the data."""
    return max(abs(r[name][0] - drift) / r[name][1] for r in rates)


EQUATIONS = sorted(set(_verdict_equations()) | set(GOLDEN_EQUATIONS))


def test_the_equations():
    # 331 distinct benchmark equations (345 with the repeated references) and the golden ones
    assert len(_verdict_equations()) == 345 and len(EQUATIONS) == 367
    assert sum(POLE in f for f, _ in EQUATIONS) == 180


@pytest.mark.parametrize("f, g", EQUATIONS)
def test_verdicts_agree_with_the_quadrature_rates(f, g):
    eq = EquationSpec.from_strings(f, g)
    rep = classify(eq, ex.SamplingPolicy(seed=42))
    rates = [_rates(eq, *d) for d in DATA]
    for name in ("momentum", "h1", "l2m"):
        conserved = getattr(rep, name).conserved
        if name == "momentum" and conserved and POLE in f:
            # a local law whose integral drifts at -f0*L, not zero
            assert _reading(rates, name, drift=-L) <= POLE_DRIFT
            assert _reading(rates, name) >= NOT_CONSERVED
        elif conserved:
            assert _reading(rates, name) <= CONSERVED, name
        else:
            assert conserved is False and _reading(rates, name) >= NOT_CONSERVED, name
    # the weighted H2 norm at mu != 2: R_L2m + (mu-2)*R_H1 vanishes on every datum for one mu
    h1 = np.array([r["h1"][0] for r in rates])
    l2m = np.array([r["l2m"][0] for r in rates])
    if _reading(rates, "h1") <= CONSERVED:
        oracle_wh2 = bool(_reading(rates, "l2m") <= CONSERVED)
    else:
        shift = -float(h1 @ l2m) / float(h1 @ h1)
        residual = max(abs(r["l2m"][0] + shift * r["h1"][0]) / (r["l2m"][1] + abs(shift) * r["h1"][1])
                       for r in rates)
        oracle_wh2 = bool(residual <= CONSERVED and abs(shift) > 1e-6)
        assert residual <= CONSERVED or residual >= NOT_CONSERVED_FIT
    assert rep.weighted_h2.conserved is oracle_wh2


def _pole_coefficient_by_evaluate(w: ex.Expr) -> float:
    """The pole coefficient of w as ex.evaluate reads it, a Program compiled for w alone."""
    u0, ux0 = 1.3, 0.6
    plus, minus = ex.evaluate(w, {"u": np.array([u0, u0]), "ux": np.array([ux0, -ux0])})
    est = 0.5 * float(plus + minus) * (u0 * u0 - ux0 * ux0) / u0
    if not math.isfinite(est):
        return 0.0
    snapped = Fraction(est).limit_denominator(1000)
    return float(snapped) if abs(float(snapped) - est) <= 1e-6 * max(1.0, abs(est)) else est


def test_momentum_recognizer_reads_what_a_fresh_expansion_reads(monkeypatch, recognized):
    # f0 read from the equation's Program equals, to the bit, f0 read by
    # evaluating f alone; and the exact path's dict comparison of w with
    # ux*q(y) accepts and rejects what a normal form of w - ux*q(y) does
    poles = []
    for f, g in EQUATIONS:
        eq = EquationSpec.from_strings(f, g)
        with np.errstate(all="ignore"):
            got = conslaw._pole_coefficient(eq.program(conslaw._POLE_POINTS)[0])
        want = _pole_coefficient_by_evaluate(eq.bound_f)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), f
        poles.append(want)
        conslaw.flux_momentum(eq)
        conslaw.flux_h1(eq)
    monkeypatch.undo()
    assert all(f0 for (f, _), f0 in zip(EQUATIONS, poles) if POLE in f) and len(recognized) == 2 * len(EQUATIONS)
    assert all(arg is conslaw._Y for _, arg, _, _ in recognized)
    seen = [(w, rec if exact else None) for w, _, rec, exact in recognized]  # what the exact path accepted
    accepted = 0
    for w, rec in seen:
        nf = ex.poly_normal_form(w)
        if nf is None:
            assert rec is None
            continue
        want = conslaw._Recognized.polynomial(conslaw._Y, conslaw._coefficients(nf, {"ux": 1}, 2))
        if ex.poly_normal_form(ex.sub(w, ex.mul(conslaw._UX, want.expr()))) == {}:
            assert rec == want
            accepted += 1
        else:
            assert rec is None
    assert 0 < accepted < len(seen)
