"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance here is frozen; thresholds marked "calibrated" were
measured once with the oracle runs in this repository and then fixed.
"""

import warnings

import numpy as np
import pytest

from peakonlaws.conslaw import (
    ConservedCurrent,
    EquationSpec,
    characteristic_check,
    check_grad_energy,
    check_h1,
    check_momentum,
    classify,
)
from peakonlaws.expr import (
    SamplingPolicy,
    add,
    const,
    d_x,
    div,
    euler_u,
    fn,
    is_zero,
    mul,
    parse,
    pow_,
    sub,
    var,
)
from peakonlaws.pde import ConservedSeries, SimConfig, check_apriori_bounds, run
from peakonlaws.twave import quadrature_crosscheck, solitary_ode_residual, solitary_profile

POL = SamplingPolicy()  # 20 points, 1e-9 relative tolerance


def _report(name, **kv):
    detail = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}" for k, v in kv.items())
    print(f"PASS {name}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: the known-equation Y/N grid (16 entries)


def test_criterion_1_known_equation_grid():
    grid = {
        "Camassa-Holm": ("ux", "u", True, True, False, False),
        "Degasperis-Procesi": ("2*ux", "u", True, False, False, False),
        "Novikov": ("u*ux", "u^2", False, True, False, False),
        "modified Camassa-Holm": ("0", "u^2-ux^2", True, True, False, False),
    }
    for name, (f, g, mom, h1, l2m, wh2) in grid.items():
        rep = classify(EquationSpec.from_strings(f, g), POL)
        got = (rep.momentum.conserved, rep.h1.conserved, rep.l2m.conserved,
               rep.weighted_h2.conserved)
        assert got == (mom, h1, l2m, wh2), f"{name}: {got}"
    _report("criterion 1", entries=16)


# ---------------------------------------------------------------------------
# criterion 2: Euler-kernel suite, 100 random polynomials


def test_criterion_2_euler_kernel_suite():
    rng = np.random.default_rng(2024)
    x, u, ux = var("x"), var("u"), var("ux")
    worst = 0.0
    for trial in range(100):
        terms = []
        for _ in range(7):
            a, b, c = (int(v) for v in rng.integers(0, 5, 3))
            if a + b + c > 4:
                continue
            terms.append(mul(float(rng.uniform(-2, 2)), pow_(x, a), pow_(u, b), pow_(ux, c)))
        theta = add(*terms)
        v = is_zero(euler_u(d_x(theta)), SamplingPolicy(seed=trial, rel_tol=1e-9))
        assert v.is_zero, f"trial {trial}: residual {v.residual_max:.3e}"
        worst = max(worst, v.residual_max)
    _report("criterion 2", trials=100, worst_residual=worst)


# ---------------------------------------------------------------------------
# criterion 3: kernel-family suite (25 random instances)


def test_criterion_3_kernel_family_suite():
    rng = np.random.default_rng(31)
    u, ux, x = var("u"), var("ux"), var("x")
    y = sub(pow_(u, 2), pow_(ux, 2))
    worst_pass, worst_reject = 0.0, np.inf
    for trial in range(25):
        k1 = [float(c) for c in rng.uniform(-2, 2, int(rng.integers(1, 5)))]
        k0 = float(rng.integers(0, 2))
        h1 = mul(ux, add(*(mul(c, pow_(y, k)) for k, c in enumerate(k1))))
        if k0:
            h1 = add(h1, mul(k0, div(u, y)))
        # forward: E_u(h1*m) = 0
        v = is_zero(euler_u(mul(h1, var("m"))), SamplingPolicy(seed=100 + trial))
        assert v.is_zero, f"trial {trial}: forward residual {v.residual_max:.3e}"
        worst_pass = max(worst_pass, v.residual_max)
        # total-derivative identity: h1*m = D_x(K1/2 + k0*ln((u-ux)/(u+ux))/2 + k0*x)
        K1 = add(*(mul(c / (k + 1.0), pow_(y, k + 1)) for k, c in enumerate(k1)))
        theta = mul(0.5, K1)
        if k0:
            theta = add(theta, mul(0.5 * k0, fn("ln", div(sub(u, ux), add(u, ux)))), mul(k0, x))
        v = is_zero(sub(mul(h1, var("m")), d_x(theta)), SamplingPolicy(seed=200 + trial))
        assert v.is_zero, f"trial {trial}: derivative identity residual {v.residual_max:.3e}"
        worst_pass = max(worst_pass, v.residual_max)
        # discriminating direction: h1 + 1e-3*u must be rejected
        v = is_zero(euler_u(mul(add(h1, mul(1e-3, u)), var("m"))), SamplingPolicy(seed=300 + trial))
        assert v.status == "nonzero", f"trial {trial}: perturbation not rejected"
        assert v.residual_max > 1e-6
        worst_reject = min(worst_reject, v.residual_max)
    _report("criterion 3", trials=25, worst_residual=worst_pass, weakest_rejection=worst_reject)


# ---------------------------------------------------------------------------
# criterion 4: overlap-family instances


def test_criterion_4_overlap_instances():
    both = EquationSpec.from_strings("ux*(u^2-ux^2)", "u*(u^2-ux^2)+(u^2-ux^2)")
    assert check_momentum(both, POL).conserved is True
    assert check_h1(both, POL).conserved is True

    singular = EquationSpec.from_strings("ux/u^3", "1/u^2")
    sols = check_grad_energy(singular, POL)
    assert sols.kind == "line"
    assert abs(sols.nu) < 1e-9 and abs(sols.direction[1]) < 1e-9  # the line nu = 0
    assert check_momentum(singular, POL).conserved is False
    _report("criterion 4", line_nu=abs(sols.nu))


# ---------------------------------------------------------------------------
# criterion 5: characteristic equation for the purely spatial example


def test_criterion_5_characteristic_equation():
    eq = EquationSpec.from_strings("-2*u*ux", "u^2-3*ux^2")
    cur = ConservedCurrent(
        "spatial",
        parse("0"),
        parse("(u^3-u*ux^2-(u^2-3*ux^2)*m+utx)^2-(u^2*ux-ux^3+ut)^2"),
        parse("2*u*(ux^2-u^2)+2*(u^2-3*ux^2)*m-2*utx"),
    )
    v = characteristic_check(cur, eq, SamplingPolicy(n_points=20, rel_tol=1e-9))
    assert v.conserved is True
    _report("criterion 5", residual=v.residual_max)


# ---------------------------------------------------------------------------
# criterion 6: conservation drift in the reference runs


CH = EquationSpec.from_strings("ux", "u")
SINGULAR = EquationSpec.from_strings("ux/u^3", "1/u^2")


def test_criterion_6_reference_conservation_drift():
    cfg = SimConfig(40.0, 512, 1e-3, 10.0, CH,
                    {"kind": "gaussian", "params": {}}, series_dt=0.25)
    res = run(cfg)
    assert res.status == "completed"
    m_drift = ConservedSeries.relative_drift(res.series.M)
    h1_drift = ConservedSeries.relative_drift(res.series.H1sq)
    l2m_change = ConservedSeries.relative_drift(res.series.L2msq)
    assert m_drift <= 1e-8
    assert h1_drift <= 1e-8
    assert l2m_change >= 1e-2

    cfg = SimConfig(40.0, 512, 1e-3, 10.0, SINGULAR,
                    {"kind": "cosine_offset", "params": {"offset": 2.0, "amplitude": 0.5}},
                    series_dt=0.25)
    res = run(cfg)
    assert res.status == "completed"
    h1s = ConservedSeries.relative_drift(res.series.H1sq)
    l2s = ConservedSeries.relative_drift(res.series.L2msq)
    ms = ConservedSeries.relative_drift(res.series.M)
    assert h1s <= 1e-8
    assert l2s <= 1e-8
    assert ms >= 1e-7  # calibrated: measured 8.1e-7, far above the conserved budget
    bounds = check_apriori_bounds(res.series)
    assert bounds.status == "holds"
    _report("criterion 6", ch_m=m_drift, ch_h1=h1_drift, ch_l2m_change=l2m_change,
            sing_h1=h1s, sing_l2m=l2s, sing_m=ms,
            bound_margin=min(bounds.sup_u_margin, bounds.sup_ux_margin, bounds.norm_margin))


# ---------------------------------------------------------------------------
# criterion 7: convergence orders


def test_criterion_7_convergence_orders():
    # spectral regime: an under-resolved width-0.35 gaussian at N=256
    # resolves at N=512 (calibrated: ratio ~4e7)
    drifts = []
    for n in (256, 512):
        cfg = SimConfig(40.0, n, 2e-4, 2.0, CH,
                        {"kind": "gaussian", "params": {"width": 0.35}}, series_dt=0.5)
        drifts.append(ConservedSeries.relative_drift(run(cfg).series.H1sq))
    spatial_ratio = drifts[0] / drifts[1]
    assert spatial_ratio >= 100.0

    # RK4 regime: global step-halving Richardson differences shrink 16x;
    # the invariant drift itself shrinks at least as fast (its leading
    # term is the 5th-order dissipative one)
    finals, drifts_t = [], []
    for dt in (0.02, 0.01, 0.005):
        cfg = SimConfig(40.0, 512, dt, 2.0, CH,
                        {"kind": "gaussian", "params": {}}, series_dt=0.5)
        res = run(cfg)
        finals.append(res.final.u)
        drifts_t.append(ConservedSeries.relative_drift(res.series.H1sq))
    e1 = float(np.max(np.abs(finals[0] - finals[1])))
    e2 = float(np.max(np.abs(finals[1] - finals[2])))
    richardson = e1 / e2
    assert 16.0 * 0.7 <= richardson <= 16.0 * 1.3
    drift_ratio = drifts_t[0] / drifts_t[1]
    assert drift_ratio >= 16.0 * 0.7
    _report("criterion 7", spatial_ratio=spatial_ratio, richardson=richardson,
            drift_ratio=drift_ratio)


# ---------------------------------------------------------------------------
# criterion 8: solitary-wave closed form


def test_criterion_8_solitary_waves():
    xi = np.linspace(-15.0, 15.0, 3001)
    worst_peak, worst_ode1, worst_quad, worst_fi = 0.0, 0.0, 0.0, 0.0
    for b, c in ((0.3, 1.0), (0.5, 1.0), (0.9, 2.0)):
        p = solitary_profile(b, c, xi)
        peak_err = abs(p.peak_height - b * np.sqrt(2.0 - b * b) / np.sqrt(c))
        assert peak_err < 1e-12
        r = solitary_ode_residual(p)
        assert r.first_order_max < 1e-10
        quad = quadrature_crosscheck(b, c)
        assert quad < 1e-6
        c2 = 2.0 - b * b
        fi_err = max(r.c1_spread, r.c2_spread,
                     abs(r.c2 - c2), abs(r.c1 - 0.25 * c2 * c2))
        assert fi_err < 1e-8
        worst_peak = max(worst_peak, peak_err)
        worst_ode1 = max(worst_ode1, r.first_order_max)
        worst_quad = max(worst_quad, quad)
        worst_fi = max(worst_fi, fi_err)
    _report("criterion 8", peak=worst_peak, ode1=worst_ode1, quadrature=worst_quad,
            first_integrals=worst_fi)


# ---------------------------------------------------------------------------
# criterion 9: peakon speed and peak ordering


def _crest_speed(grid, snapshots):
    xs, ts = [], []
    prev, offset = None, 0.0
    for t, u, m in snapshots:
        j = int(np.argmax(u))
        jm, jp = (j - 1) % grid.n, (j + 1) % grid.n
        denom = u[jm] - 2.0 * u[j] + u[jp]
        frac = 0.5 * (u[jm] - u[jp]) / denom if denom else 0.0
        pos = grid.x[j] + frac * grid.dx
        if prev is not None:
            while pos + offset < prev - grid.length / 2.0:
                offset += grid.length
        pos += offset
        xs.append(pos)
        ts.append(t)
        prev = pos
    coeffs = np.polyfit(ts, xs, 1)
    return float(coeffs[0])


# calibrated: at L=4 the periodization pulls the crest speed slightly
# below c while the grid-width mollification pushes it above; measured
# 1.021 at this configuration (0.995 at N=2048), well inside the 5% band
PEAKON_RUN = dict(length=4.0, n=1024, dt=1e-4)


@pytest.mark.slow
def test_criterion_9_peakon_speed_and_ordering():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = SimConfig(
            PEAKON_RUN["length"], PEAKON_RUN["n"], PEAKON_RUN["dt"], 5.0, SINGULAR,
            {"kind": "mollified_peakon", "params": {"amplitude": 1.0}},
            series_dt=0.5, snapshot_times=tuple(np.arange(0.0, 5.01, 0.25)),
            min_u_floor=1e-3,
        )
        res = run(cfg)
    assert res.status == "completed"
    speed = _crest_speed(cfg.grid, res.snapshots)
    assert abs(speed - 1.0) <= 0.05, f"crest speed {speed}"

    bgrid = np.linspace(0.01, 0.99, 99)
    assert np.all(bgrid * np.sqrt(2.0 - bgrid * bgrid) < 1.0)
    _report("criterion 9", crest_speed=speed, b_grid_points=99)
