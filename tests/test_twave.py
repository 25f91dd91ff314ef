import math
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from peakonlaws import pde, twave
from peakonlaws.conslaw import EquationSpec, classify
from peakonlaws.pde import Grid, SimConfig, run
from peakonlaws.twave import (
    SolitaryExistence,
    _usecond,
    _xi_of_U,
    first_integral,
    peakon,
    quadrature_crosscheck,
    smooth_solitary_analysis,
    solitary_ode_residual,
    solitary_peak_height,
    solitary_profile,
)

XI = np.linspace(-15.0, 15.0, 3001)


def test_peak_height_closed_form():
    assert solitary_peak_height(0.5, 1.0) == pytest.approx(0.5 * np.sqrt(1.75), abs=1e-15)
    rng = np.random.default_rng(23)
    for _ in range(20):
        b = float(rng.uniform(0.05, 0.95))
        c = float(rng.uniform(0.2, 5.0))
        p = solitary_profile(b, c, np.array([0.0, 0.7, -0.7]))
        assert abs(p.peak_height - b * np.sqrt(2 - b * b) / np.sqrt(c)) < 1e-12
        assert abs(p.U[0] - p.peak_height) < 1e-12
        assert 0.0 < np.sqrt(c) * p.peak_height < 1.0


def test_parameter_validation():
    for b, c in ((1.5, 1.0), (0.0, 1.0), (-0.2, 1.0), (0.5, 0.0), (0.5, -1.0)):
        with pytest.raises(ValueError):
            solitary_profile(b, c, XI)
    with pytest.raises(ValueError):
        peakon(0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            solitary_profile(0.5, 1.0, np.array([0.0, 1.0, bad]))


def _transport_nodes(center, length=20.0, n=1024, pairs=5):
    """The nodes of a solitary initial_data on the transport grid: xi and its image pairs."""
    xi = np.mod(np.arange(n) * (length / n) - center + length / 2.0, length) - length / 2.0
    shifts = length * np.arange(1, pairs + 1)[:, None]
    return np.concatenate([xi, np.abs(np.stack([xi + shifts, xi - shifts], axis=1)).ravel()])


def _mp_xi_of_U(mp, U, b, c):
    s = mp.sqrt(1 - c * U * U)
    t = mp.sqrt((b * b - 1 + s) / (1 + s))
    return mp.sqrt(2) / b * mp.atanh(mp.sqrt(2) * t / b) - 2 * mp.atanh(t)


def _octave_edges(b, c):
    # xi at U = peak*2^-k and next to it, one target inside each octave,
    # and the far end, where U underflows
    octaves = solitary_peak_height(b, c) * 0.5 ** np.arange(1, 111)
    table, inside = _xi_of_U(octaves, b, c), _xi_of_U(1.5 * octaves, b, c)
    return np.concatenate([[0.0], table, -table, np.nextafter(table, 0.0), np.nextafter(table, np.inf),
                           2.0 * table, table + 1e3, [1e300, np.finfo(float).max], inside])


def _random_shapes():
    rng = np.random.default_rng(20261017)
    for _ in range(12):
        b, c = float(rng.uniform(0.02, 0.98)), float(rng.uniform(0.2, 5.0))
        yield b, c, np.concatenate([np.linspace(-30.0, 30.0, 241), rng.uniform(0.0, 150.0 / b, 200)])


ORACLE_CASES = [
    (0.5, 1.0, np.arange(-60, 61) * 0.25),  # xi = 0 and negative xi
    (0.9, 2.0, np.linspace(-110.0, 110.0, 2201)),
    (0.3, 0.5, np.linspace(-8.0, 8.0, 96).reshape(2, 3, 16)),
    # the far tail, where U = 5.6e-36, 1.0e-46 and 8.7e-93 lie below
    # peak*2^-110, out of reach of 110 halvings from (0, peak)
    (0.5, 1.0, np.array([230.0, 300.0, 600.0])),
    *((b, c, _octave_edges(b, c)) for b, c in ((0.5, 1.0), (0.9, 2.0), (0.05, 3.0), (0.99, 0.2))),
    *((0.5, 1.0, _transport_nodes(center)) for center in (10.0, 2.35, 13.71, 19.99)),
    *_random_shapes(),
    # the extremes of b, up to |xi| = 690/beta, where U is about peak*1e-300
    *((b, 1.0, np.concatenate([[0.0, 5e-324, 1e-15], np.geomspace(1e-12, 690.0 * np.sqrt(2.0) / b, 200)]))
      for b in (1e-3, 0.9999, 1.0 - 1e-9)),
    (0.5, 1.0, np.empty(0)),
    # the last float below 1, down to |xi| where the slope (1 - b^2)/beta is
    # at the rounding of xi(y) and the Newton steps in y are rounding noise
    (1.0 - 2.0**-53, 1.0, np.concatenate([[3.1320052337235604e-23, 3.237259774850798e-23,
                                           3.972308734353782e-24, 3.9768388947502744e-24],
                                          np.geomspace(1e-30, 1e3, 200)])),
]


def _oracle_eps(peak, U):
    """The oracle's tolerance on U, relative: 8*(1 + ln(peak/U)) ulps.

    _solitary_U was measured within 2*(1 + ln(peak/U)) ulps of a 60-digit
    inversion; ln(U) follows y, whose error grows with y ~ ln(peak/U).
    """
    return 8.0 * (1.0 + math.log(peak / U)) * 2.0**-52


@pytest.mark.parametrize("b, c, xi", ORACLE_CASES,
                         ids=[f"{i}-b{b:.10g}-n{np.size(xi)}" for i, (b, c, xi) in enumerate(ORACLE_CASES)])
def test_profile_within_its_tolerance_of_the_closed_form(b, c, xi):
    # |xi| is decreasing in U, so the true U at |xi| lies in U*(1 -+ eps)
    # exactly where xi(U*(1 + eps)) <= |xi| <= xi(U*(1 - eps)), by the
    # closed form in U: independent of the y-parametrisation that
    # _solitary_U solves.  1 - z^2 falls to about (U/peak)^2 in the tail,
    # so the working precision keeps 120 digits beyond the ones it loses.
    # Where U underflows to 0 this asserts that the true U is below 2^-1072.
    mp = pytest.importorskip("mpmath")
    U = solitary_profile(b, c, xi).U
    assert U.shape == xi.shape
    peak = solitary_peak_height(b, c)
    bb, cc = mp.mpf(b), mp.mpf(c)
    for x, u in np.unique(np.stack([np.abs(xi).ravel(), U.ravel()], axis=1), axis=0):
        with mp.workdps(120 + 2 * math.ceil(math.log10(peak) - math.log10(max(u, 2.0**-1074)))):
            # below the normal range U keeps an absolute rounding: allow
            # 4 ulps of the subnormals there
            tol = mp.mpf(_oracle_eps(peak, max(u, 2.0**-1022))) * u + mp.mpf(2) ** -1072
            if tol < u:
                assert _mp_xi_of_U(mp, u - tol, bb, cc) >= x, (x, u)
            if u + tol < peak:
                assert _mp_xi_of_U(mp, u + tol, bb, cc) <= x, (x, u)


def test_profile_newton_steps_for_the_transport_nodes(monkeypatch):
    # both inversions of the transport config's solitary initial data,
    # on 1024 + 63 and 10240 nodes, converge in 5 Newton steps, the last
    # of them the one taken after the stopping rule holds
    nodes = []
    invert = pde._solitary_U
    monkeypatch.setattr(pde, "_solitary_U", lambda b, c, xi: nodes.append(np.size(xi)) or invert(b, c, xi))
    cfg = SimConfig(20.0, 1024, 4e-5, 1.0, EquationSpec.from_strings("ux/u^3", "1/u^2"),
                    {"kind": "solitary_wave", "params": {"b": 0.5, "c": 1.0}})
    monkeypatch.setattr(twave, "_NEWTON_CAP", 5)
    pde.initial_data(cfg)
    assert sum(nodes) == 1024 + 63 + 10240
    monkeypatch.setattr(twave, "_NEWTON_CAP", 4)
    with pytest.raises(RuntimeError, match="did not converge"):
        pde.initial_data(cfg)


REPEAT_FAULTS = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from peakonlaws import pde, twave

    # the nodes of the image pairs in a solitary initial_data (L=20, N=1024)
    length, n = 20.0, 1024
    xi = np.arange(n) * (length / n) - length / 2.0
    shifts = length * np.arange(1, 6)[:, None]
    xi = np.abs(np.stack([xi + shifts, xi - shifts], axis=1))
    twave._solitary_U(0.5, 1.0, xi)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    twave._solitary_U(0.5, 1.0, xi)
    assert "scipy" not in sys.modules
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's heap")
def test_profile_newton_reuses_its_memory():
    # a loop that allocates at every step lets glibc trim the top of a
    # small heap and fault it back in: thousands of minor faults per call
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", REPEAT_FAULTS], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_profile_symmetry_and_monotone_decay():
    p = solitary_profile(0.5, 1.0, XI)
    assert np.max(np.abs(p.U - p.U[::-1])) <= 1e-10
    right = p.U[XI >= 0]
    assert np.all(np.diff(right) <= 1e-15)
    refl = p.reflected()
    assert refl.orientation == -1
    assert np.all(refl.U == -p.U) and np.all(refl.Uprime == -p.Uprime)


def test_small_b_profile_collapses():
    assert solitary_peak_height(1e-4, 1.0) < 2e-4


def test_speed_scaling():
    # the ODE depends on U only through c*U^2: profile(b,c) = profile(b,1)/sqrt(c)
    xi = np.linspace(0.0, 10.0, 101)
    p1 = solitary_profile(0.4, 1.0, xi)
    p2 = solitary_profile(0.4, 2.5, xi)
    assert np.max(np.abs(p2.U - p1.U / np.sqrt(2.5))) < 1e-12


def test_tail_log_slope():
    for b in (0.5, 0.9):
        xi = np.array([10.0, 12.0])
        p = solitary_profile(b, 1.0, xi)
        slope = (np.log(p.U[1]) - np.log(p.U[0])) / 2.0
        assert slope == pytest.approx(-b / np.sqrt(2.0), rel=0.01)


# ---------------------------------------------------------------------------
# hand-derived first integrals: oracles for first_integral that share no
# code with conslaw


def _l2m_oracle(U, Upp, c):
    """Co-moving flux of the singular equation's m^2 density: (U - U'')^2 (1/U^2 - c)."""
    return (U - Upp) ** 2 * (1.0 / U**2 - c)


def _h1_oracle(U, Up, Upp, c):
    """The singular equation's H1 first integral: -c(U^2 + U'^2) + 2cUU'' + 2(U - U'')/U."""
    return -c * (U * U + Up * Up) + 2.0 * c * U * Upp + 2.0 * (U - Upp) / U


def _hamiltonian_oracle(f1, g1, U, Up, Upp, c):
    """First integrals of f = ux*f1(y), g = u*f1(y) + g1(y), y = U^2 - U'^2.

    f1 and g1 are coefficient lists, low order first; F1 and G1 are their
    antiderivatives in y from 0, and F1t = F1/y, G1t = G1/y term by term.
    Returns the momentum and H1 integrals and the combined expression
    (U'^2 - U^2)(U*F1t + G1t - c), which equals h1 - 2*U*mom.
    """
    P = np.polynomial.polynomial
    y = U * U - Up * Up
    f1y, g1y = P.polyval(y, f1), P.polyval(y, g1)
    F1, G1 = P.polyval(y, P.polyint(f1)), P.polyval(y, P.polyint(g1))
    F1t = P.polyval(y, [ck / (k + 1.0) for k, ck in enumerate(f1)])
    G1t = P.polyval(y, [ck / (k + 1.0) for k, ck in enumerate(g1)])
    mom = -c * (U - Upp) + 0.5 * F1 + (U - Upp) * (U * f1y + g1y)
    h1 = -c * (U * U + Up * Up) + 2.0 * c * U * Upp - G1 + 2.0 * U * (U - Upp) * (U * f1y + g1y)
    return mom, h1, (Up * Up - U * U) * (U * F1t + G1t - c)


def _currents(f, g):
    """The currents classify builds for m_t + f*m + (g*m)_x = 0, by name."""
    return {cur.name: cur for cur in classify(EquationSpec.from_strings(f, g)).fluxes}


def _family(f1, g1):
    """f and g of the momentum/H1 family member with coefficient lists f1, g1 (low order first)."""
    def poly(coeffs):
        return " + ".join(f"({ck!r})*(u^2-ux^2)^{k}" for k, ck in enumerate(coeffs))
    return f"ux*({poly(f1)})", f"u*({poly(f1)}) + {poly(g1)}"


SINGULAR = ("ux/u^3", "1/u^2")


def test_ode_residuals_and_first_integrals():
    cur = _currents(*SINGULAR)
    xi = np.linspace(0.05, 10.0, 400)
    for b, c in ((0.3, 1.0), (0.5, 1.0), (0.9, 2.0)):
        p = solitary_profile(b, c, XI)
        r = solitary_ode_residual(p)
        assert r.first_order_max < 1e-10
        assert r.c2 == pytest.approx(2.0 - b * b, abs=1e-8)
        assert r.c1 == pytest.approx(0.25 * (2.0 - b * b) ** 2, abs=1e-8)
        assert r.c1_spread < 1e-8 and r.c2_spread < 1e-8
        # the currents classify builds give the hand-derived integrals
        q = solitary_profile(b, c, xi)
        Upp = _usecond(q.U, b, c)
        l2m = first_integral(cur["l2m"], c, q.U, q.Uprime, Upp)
        h1 = first_integral(cur["h1"], c, q.U, q.Uprime, Upp)
        assert l2m == pytest.approx(_l2m_oracle(q.U, Upp, c), rel=1e-12, abs=1e-14)
        assert h1 == pytest.approx(_h1_oracle(q.U, q.Uprime, Upp, c), rel=1e-12, abs=1e-14)


def test_every_x_free_current_gives_a_first_integral():
    # along the decaying solitary wave, m/U -> 1 - b^2/2 and U'^2/U^2 -> b^2/2,
    # which sets each constant; the grad_energy(mu=3,nu=0) current has no
    # hand formula.  Spreads measured: 1.1e-15, 5.6e-16 and 1.8e-15
    b, c = 0.6, 1.3
    k2 = 0.5 * b * b
    expected = {"h1": 2.0 * (1.0 - k2), "l2m": (1.0 - k2) ** 2, "grad_energy(mu=3,nu=0)": (3.0 - k2) * (1.0 - k2) - 1.0}
    cur = _currents(*SINGULAR)
    assert set(cur) == set(expected)
    p = solitary_profile(b, c, np.linspace(0.05, 10.0, 400))
    for name, value in expected.items():
        I = first_integral(cur[name], c, p.U, p.Uprime, _usecond(p.U, b, c))
        assert np.ptp(I) < 1e-13, name
        assert float(np.mean(I)) == pytest.approx(value, abs=1e-13), name
    assert expected["grad_energy(mu=3,nu=0)"] == pytest.approx(1.3124, abs=1e-15)


def test_first_integral_rejects_a_flux_that_holds_x():
    # the pole family's momentum flux holds w0*x: Phi - c*T is no first integral
    cur = _currents("ux + 0.5*u/(u^2-ux^2)", "u")["momentum"]
    with pytest.raises(ValueError, match="holds x"):
        first_integral(cur, 1.0, 1.0, 0.5, 0.2)


def test_third_order_residual_at_noise_optimal_step():
    # rounding noise of the profile is amplified by 1/dxi^3,
    # so the finite-difference identity is cleanest at a coarser step
    r = solitary_ode_residual(solitary_profile(0.5, 1.0, XI), dxi=1e-2)
    assert r.third_order_rms < 1e-6
    r = solitary_ode_residual(solitary_profile(0.3, 1.0, XI), dxi=1e-2)
    assert r.third_order_rms < 1e-6


def test_third_order_residual_spec_step():
    # at dxi = 1e-3 the floor is set by rounding, not by the identity
    r = solitary_ode_residual(solitary_profile(0.5, 1.0, XI), dxi=1e-3)
    assert r.third_order_rms < 5e-3


def test_residual_rejects_peakon_profile():
    with pytest.raises(ValueError):
        solitary_ode_residual(peakon(1.0))


def test_quadrature_crosscheck():
    assert quadrature_crosscheck(0.5, 1.0) <= 1e-6
    assert quadrature_crosscheck(0.9, 2.0) <= 1e-6


def test_first_integral_detects_perturbation():
    p = solitary_profile(0.5, 1.0, np.linspace(0.05, 10.0, 300))
    U, Upp = p.U * (1.0 + 1e-4), _usecond(p.U, 0.5, 1.0)
    vals = first_integral(_currents(*SINGULAR)["l2m"], 1.0, U, p.Uprime, Upp)
    assert np.ptp(vals) > 1e-6
    assert vals == pytest.approx(_l2m_oracle(U, Upp, 1.0), rel=1e-12, abs=1e-14)


def test_peakon_relation():
    pk = peakon(1.0)
    assert pk.c == 1.0
    assert peakon(2.0).c == 0.25
    # amplitude 1/sqrt(c) matches |a| identically
    for a in (0.5, -1.5, 3.0):
        pk = peakon(a)
        assert pk.peak_height == abs(a)
        assert 1.0 / np.sqrt(pk.c) == pytest.approx(abs(a), abs=1e-15)
    assert peakon(-1.0).orientation == -1


def test_peak_ordering_solitary_below_peakon():
    bgrid = np.linspace(0.01, 0.99, 99)
    peaks = bgrid * np.sqrt(2.0 - bgrid * bgrid)
    assert np.all(peaks < 1.0)


# ---------------------------------------------------------------------------
# momentum/H1 family first integrals


def _periodic_travelling_wave(r1, r2, r3, n=2048):
    """Smooth periodic travelling wave of CH built from the cubic
    U'^2 = (U-r1)(U-r2)(r3-U)/(c-U) with c = r1+r2+r3 > r3."""
    c = r1 + r2 + r3
    theta = np.linspace(0.0, np.pi / 2.0, n)
    U = r2 + (r3 - r2) * np.sin(theta) ** 2
    integrand = 2.0 * np.sqrt((c - U) / (U - r1))
    xi_half = np.concatenate([[0.0], np.cumsum((integrand[1:] + integrand[:-1]) * 0.5 * np.diff(theta))])
    X = 2.0 * xi_half[-1]  # full period
    return c, X, xi_half, U


def test_ch_first_integral_constant_along_numerical_wave():
    r1, r2, r3 = 0.2, 0.5, 1.0
    c, X, xi_half, Uh = _periodic_travelling_wave(r1, r2, r3)
    # periodize: U on [0, X) by even reflection, then spline onto a power-of-two grid
    xi_full = np.concatenate([xi_half, X - xi_half[-2::-1]])
    U_full = np.concatenate([Uh, Uh[-2::-1]])
    spline = CubicSpline(xi_full, U_full, bc_type="periodic")
    grid = Grid(X, 512)
    u0 = spline(grid.x)
    m0 = np.fft.irfft((1.0 + grid.k**2) * np.fft.rfft(u0), n=grid.n)

    ch = EquationSpec.from_strings("ux", "u")
    cfg = SimConfig(length=X, n=512, dt=2e-4, t_final=1.0, equation=ch,
                    initial={"kind": "gaussian", "params": {}}, series_dt=1.0)
    res = run(cfg, m0=m0)  # 5000 steps from the custom state
    assert res.status == "completed"
    st = res.final

    cur = _currents("ux", "u")
    mom, h1 = (first_integral(cur[name], c, st.u, st.ux, st.u - st.m) for name in ("momentum", "h1"))
    mom_oracle, h1_oracle, comb = _hamiltonian_oracle([1.0], [0.0], st.u, st.ux, st.u - st.m, c)
    assert mom == pytest.approx(mom_oracle, rel=1e-12, abs=1e-14)
    assert h1 == pytest.approx(h1_oracle, rel=1e-12, abs=1e-14)
    # U'^2 = (U-r1)(U-r2)(r3-U)/(c-U) pins the first-integral constants:
    # mom = -(r1 r2 + r1 r3 + r2 r3)/2, h1 = -r1 r2 r3, and
    # (U'^2 - U^2)(U*F1t + G1t - c) = -(2*mom*U - h1) along the wave
    c1 = -(r1 * r2 + r1 * r3 + r2 * r3) / 2.0
    c2 = -r1 * r2 * r3
    assert np.ptp(mom) < 1e-6
    assert float(np.mean(mom)) == pytest.approx(c1, abs=1e-6)
    assert np.ptp(h1) < 1e-5
    assert float(np.mean(h1)) == pytest.approx(c2, abs=1e-5)
    assert np.max(np.abs(comb + (2.0 * c1 * st.u - c2))) < 1e-5


@pytest.mark.slow
def test_solitary_wave_transport_in_simulator():
    # image-sum periodized profile run under the singular equation:
    # crest speed within 1% of c over t in [0,5] (measured 0.35%)
    import warnings

    eq = EquationSpec.from_strings("ux/u^3", "1/u^2")
    cfg = SimConfig(
        20.0, 1024, 4e-5, 5.0, eq,
        {"kind": "solitary_wave", "params": {"b": 0.5, "c": 1.0}},
        series_dt=1.0, snapshot_times=tuple(np.arange(0.0, 5.01, 0.5)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run(cfg)
    assert res.status == "completed"
    grid = cfg.grid
    xs, ts, offset, prev = [], [], 0.0, None
    for t, u, m in res.snapshots:
        j = int(np.argmax(u))
        jm, jp = (j - 1) % grid.n, (j + 1) % grid.n
        den = u[jm] - 2.0 * u[j] + u[jp]
        pos = grid.x[j] + (0.5 * (u[jm] - u[jp]) / den if den else 0.0) * grid.dx
        if prev is not None:
            while pos + offset < prev - grid.length / 2.0:
                offset += grid.length
        pos += offset
        xs.append(pos)
        ts.append(t)
        prev = pos
    speed = float(np.polyfit(ts, xs, 1)[0])
    assert abs(speed - 1.0) <= 0.01
    # the conserved pair stays flat along the way
    assert max(abs(v - res.series.H1sq[0]) for v in res.series.H1sq) / res.series.H1sq[0] < 1e-10
    assert max(abs(v - res.series.L2msq[0]) for v in res.series.L2msq) / res.series.L2msq[0] < 1e-10


def test_hamiltonian_first_integrals_zero_data():
    z = np.zeros(16)
    cur = _currents(*_family([1.0, 0.5], [0.3]))
    mom, h1 = (first_integral(cur[name], 2.0, z, z, z) for name in ("momentum", "h1"))
    comb = _hamiltonian_oracle([1.0, 0.5], [0.3], z, z, z, 2.0)[2]
    assert np.all(mom == 0.0) and np.all(h1 == 0.0) and np.all(comb == 0.0)


def test_hamiltonian_first_integrals_on_arbitrary_data():
    # F1 and G1 are the antiderivatives in y = U^2 - U'^2 of f1 and g1 from
    # 0, and F1t = F1/y, G1t = G1/y, so the combined expression is
    # -(U*F1 + G1 - c*y); off-shell it equals h1 - 2*U*mom
    P = np.polynomial.polynomial
    U, Up, Upp = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 32))
    f1, g1, c = [0.5, -1.0, 0.25], [0.3, 2.0], 1.5
    y = U * U - Up * Up
    F1, G1, f1y, g1y = P.polyval(y, P.polyint(f1)), P.polyval(y, P.polyint(g1)), P.polyval(y, f1), P.polyval(y, g1)
    cur = _currents(*_family(f1, g1))
    mom, h1 = (first_integral(cur[name], c, U, Up, Upp) for name in ("momentum", "h1"))
    comb = _hamiltonian_oracle(f1, g1, U, Up, Upp, c)[2]
    close = dict(rel=1e-12, abs=1e-14)
    assert mom == pytest.approx(-c * (U - Upp) + 0.5 * F1 + (U - Upp) * (U * f1y + g1y), **close)
    assert h1 == pytest.approx(-c * (U * U + Up * Up) + 2.0 * c * U * Upp - G1
                               + 2.0 * U * (U - Upp) * (U * f1y + g1y), **close)
    assert comb == pytest.approx(-(U * F1 + G1 - c * y), **close)
    assert h1 - 2.0 * U * mom == pytest.approx(comb, **close)


def test_smooth_solitary_analysis():
    # CH: f1 = 1, g1 = 0 -> no smooth solitary waves
    res = smooth_solitary_analysis([1.0], [0.0], 2.0)
    assert isinstance(res, SolitaryExistence) and res.possible is False
    # mCH-type instance f1 = 0, g1 = y: g1(0) = 0 -> none either
    assert smooth_solitary_analysis([0.0], [0.0, 1.0], 1.0).possible is False
    # nonzero g1(0) pins the speed
    res = smooth_solitary_analysis([1.0], [2.0, 1.0], 2.0)
    assert res.possible is True and res.fixed_speed == 2.0
    assert smooth_solitary_analysis([1.0], [2.0, 1.0], 3.0).possible is False
