import csv
import json
import math
import warnings

import numpy as np
import pytest

from peakonlaws import conslaw, pde
from peakonlaws import expr as ex
from peakonlaws.conslaw import EquationSpec, classify
from peakonlaws.expr import SamplingPolicy
from peakonlaws.pde import (
    STATUS_COMPLETED,
    STATUS_SINGULAR,
    STATUS_WAVE_BREAKING,
    ConservedSeries,
    Grid,
    GridState,
    SimConfig,
    check_apriori_bounds,
    helmholtz_u,
    initial_data,
    read_config,
    rhs,
    run,
    write_series_csv,
    write_snapshots_csv,
)
from peakonlaws.twave import _solitary_U

CH = EquationSpec.from_strings("ux", "u")
SINGULAR = EquationSpec.from_strings("ux/u^3", "1/u^2")


def _gaussian_cfg(**kw):
    base = dict(
        length=40.0, n=256, dt=1e-3, t_final=1.0, equation=CH,
        initial={"kind": "gaussian", "params": {}}, series_dt=0.1,
    )
    base.update(kw)
    return SimConfig(**base)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(40.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        Grid(40.0, 8)  # too small
    with pytest.raises(ValueError):
        Grid(-1.0, 64)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            Grid(bad, 64)


def test_helmholtz_inversion_exact_below_nyquist():
    rng = np.random.default_rng(3)
    grid = Grid(40.0, 256)
    coef = np.zeros(129, complex)
    coef[:40] = rng.normal(size=40) + 1j * rng.normal(size=40)
    u_true = np.fft.irfft(coef, n=256)
    m = np.fft.irfft((1.0 + grid.k**2) * coef, n=256)
    u, ux = helmholtz_u(grid, m)
    ref = np.max(np.abs(u_true))
    assert np.max(np.abs(u - u_true)) / ref < 1e-12
    ux_true = np.fft.irfft(1j * grid.k * coef, n=256)
    assert np.max(np.abs(ux - ux_true)) / ref < 1e-12


def test_state_consistency_residual():
    grid = Grid(40.0, 256)
    m = initial_data(_gaussian_cfg())
    st = GridState.from_m(grid, m)
    # u - u_xx - m vanishes to spectral accuracy
    uxx = np.fft.irfft(-grid.k**2 * np.fft.rfft(st.u), n=grid.n)
    resid = np.max(np.abs(st.u - uxx - st.m)) / np.max(np.abs(st.m))
    assert resid < 1e-10


def test_rhs_zero_and_constant_states():
    grid = Grid(40.0, 256)
    st0 = GridState.from_m(grid, np.zeros(256))
    assert np.max(np.abs(rhs(grid, st0, CH))) == 0.0
    # constant state: all x-derivatives vanish, rhs = -f(c0, 0)*c0
    novikov = EquationSpec.from_strings("u*ux", "u^2")
    stc = GridState.from_m(grid, np.full(256, 0.7))
    assert np.max(np.abs(rhs(grid, stc, novikov))) < 1e-14


def test_rhs_matches_finite_difference_oracle():
    grid = Grid(40.0, 4096)
    u0 = np.cos(2.0 * np.pi * grid.x / grid.length)
    m0 = np.fft.irfft((1.0 + grid.k**2) * np.fft.rfft(u0), n=grid.n)
    st = GridState.from_m(grid, m0)

    def ddx4(v):
        return (-np.roll(v, -2) + 8 * np.roll(v, -1) - 8 * np.roll(v, 1) + np.roll(v, 2)) / (12 * grid.dx)

    r_fd = -st.ux * st.m - ddx4(st.u * st.m)
    for dealias in (True, False):
        r_spec = rhs(grid, st, CH, dealias=dealias)
        assert np.max(np.abs(r_spec - r_fd)) / np.max(np.abs(r_fd)) < 1e-6


def _rk4_step(grid, state, dt, dealias=True):
    """One Stepper.step of CH from the nodal state, back to nodal values."""
    stepper = pde.Stepper(grid, CH, dealias)
    return stepper.state(stepper.step(np.fft.rfft(state.m), state, dt), state.t + dt)


def test_step_rk4_fixed_point_and_reversal():
    grid = Grid(40.0, 256)
    zero = GridState.from_m(grid, np.zeros(256))
    assert np.max(np.abs(_rk4_step(grid, zero, 1e-3).m)) == 0.0

    st = GridState.from_m(grid, initial_data(_gaussian_cfg()))
    fwd = _rk4_step(grid, st, 1e-3)
    back = _rk4_step(grid, fwd, -1e-3)
    rel = np.max(np.abs(back.m - st.m)) / np.max(np.abs(st.m))
    assert rel < 1e-10


def test_step_richardson_ratio_is_fourth_order():
    # over a fixed window h, the 1-vs-2 and 2-vs-4 substep differences
    # shrink by the global order: ratio 16 +- 20%
    grid = Grid(40.0, 256)
    st = GridState.from_m(grid, initial_data(_gaussian_cfg()))
    h = 0.02

    def advance(state, steps):
        for _ in range(steps):
            state = _rk4_step(grid, state, h / steps)
        return state.m

    d1 = np.max(np.abs(advance(st, 1) - advance(st, 2)))
    d2 = np.max(np.abs(advance(st, 2) - advance(st, 4)))
    assert d1 / d2 == pytest.approx(16.0, rel=0.2)


@pytest.mark.parametrize("dealias", [True, False])
def test_run_and_step_rk4_are_one_integrator(dealias):
    # the Nyquist mode in m(0) survives undealiased products; run keeps the
    # spectrum between steps, _rk4_step goes through nodal m every step
    cfg = _gaussian_cfg(t_final=0.02, dealias=dealias)
    grid = cfg.grid
    m0 = initial_data(cfg) + 1e-3 * (-1.0) ** np.arange(grid.n)
    res = run(cfg, m0=m0)
    st = GridState.from_m(grid, m0)
    for _ in range(20):
        st = _rk4_step(grid, st, cfg.dt, dealias=dealias)
    assert res.status == STATUS_COMPLETED and st.t == pytest.approx(res.final.t)
    for a, b in ((st.m, res.final.m), (st.u, res.final.u), (st.ux, res.final.ux)):
        assert np.max(np.abs(a - b)) / np.max(np.abs(b)) <= 1e-12


def test_cfl_warning():
    grid = Grid(40.0, 256)
    st = GridState.from_m(grid, initial_data(_gaussian_cfg()))
    with pytest.warns(RuntimeWarning, match="CFL"):
        pde.Stepper(grid, CH).check_cfl(st, 1.0)
    # run warns at the line that calls it
    with pytest.warns(RuntimeWarning, match="CFL") as record:
        run(_gaussian_cfg(dt=1.0, t_final=1.0))
    assert any(w.filename == __file__ for w in record)


def test_run_wave_breaking_status():
    cfg = _gaussian_cfg(t_final=5.0, blowup_threshold=1.0)
    res = run(cfg)
    assert res.status == STATUS_WAVE_BREAKING
    assert res.series.t[-1] < 5.0  # partial series retained
    assert "sup|u_x|" in res.message


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_singularity_guard():
    # u0 touches the floor for an equation singular at u = 0
    cfg = SimConfig(
        length=40.0, n=256, dt=1e-3, t_final=1.0, equation=SINGULAR,
        initial={"kind": "cosine_offset", "params": {"offset": 0.0005, "amplitude": 0.5}},
        min_u_floor=1e-3,
    )
    res = run(cfg)
    assert res.status == STATUS_SINGULAR
    assert res.message == "|u| fell below the floor 0.001"


def test_unguarded_singular_run_ends_without_a_numpy_warning():
    # with the guard off, u ~ 1e-120 makes f = ux/u^3 +inf and -inf on one
    # product row; the stage's rfft of that row must not warn before the
    # run reports the hit, and the CFL warning still comes
    cfg = SimConfig(
        length=1.0, n=16, dt=1e-3, t_final=1e-2, equation=SINGULAR, min_u_floor=0.0,
        initial={"kind": "cosine_offset", "params": {"offset": 0.0, "amplitude": 1e-120}},
    )
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        res = run(cfg)
    assert res.status == STATUS_SINGULAR
    assert res.message == "f or g is non-finite on the grid"
    assert [str(w.message) for w in record] == ["CFL sanity exceeded: dt*max|g|*N/L > 1"]


@pytest.mark.parametrize("f, g", [("ux/u^3", "1/u^2"), ("ux", "ln(u^2)-ln(u^4)"), ("ux + 0.5*ux/u", "u + 1/u")])
@pytest.mark.parametrize("floor", [0.0, 1e-3])
def test_no_numpy_warning_escapes_a_pole(f, g, floor):
    # f or g at a node with u = 0 divides by zero and makes NaN; rates and
    # step raise SingularHit, with or without the guard, and neither they
    # nor run let a numpy RuntimeWarning out
    eq = EquationSpec.from_strings(f, g)
    grid = Grid(2 * math.pi, 16)
    stepper = pde.Stepper(grid, eq, guard_floor=floor)
    u, ux = np.cos(grid.x), -np.sin(grid.x)
    u[4] = 0.0
    state = GridState(0.0, 2.0 * u, u, ux)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: stepper.rates(u, ux, state.m),
                     lambda: stepper.step(np.fft.rfft(state.m), state, 1e-3)):
            with pytest.raises(pde.SingularHit):
                call()
    cfg = SimConfig(length=1.0, n=16, dt=1e-3, t_final=1e-2, equation=eq, min_u_floor=floor,
                    initial={"kind": "cosine_offset", "params": {"offset": 0.0, "amplitude": 1e-120}})
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        res = run(cfg)
    assert [str(w.message) for w in record if "CFL" not in str(w.message)] == []
    # u ~ 1e-120 is a pole of every f or g here but the guardless sum,
    # where ux/u stays finite
    assert res.status == (STATUS_COMPLETED if (floor, g) == (0.0, "u + 1/u") else STATUS_SINGULAR)


def test_non_finite_step_stops_the_run(monkeypatch):
    # a step whose spectrum is not finite, with every stage rate finite,
    # ends the run at the nodal check; the series keeps the steps before it
    real = pde.Stepper

    class NaNOnThirdStep(real):
        calls = 0

        def step(self, mh, state, dt):
            NaNOnThirdStep.calls += 1
            out = super().step(mh, state, dt)
            if NaNOnThirdStep.calls == 3:
                out[1] = np.nan
            return out

    monkeypatch.setattr(pde, "Stepper", NaNOnThirdStep)
    cfg = SimConfig(length=2 * math.pi, n=16, dt=1e-3, t_final=1e-2, equation=CH,
                    initial={"kind": "cosine_offset", "params": {}})
    res = run(cfg)
    assert (res.status, res.message) == (STATUS_SINGULAR, "non-finite nodal value")
    assert NaNOnThirdStep.calls == 3
    assert res.series.t == pytest.approx([0.0, 1e-3, 2e-3])  # steps 0-2, not the non-finite one
    assert res.final.t == pytest.approx(2e-3) and np.isfinite(res.final.m).all()


@pytest.mark.parametrize("f, g, loci", [
    ("ux/u^3", "1/u^2", ["|u|"]),
    ("ux/u", "u", ["|u|"]),
    ("ux", "1/u", ["|u|"]),
    ("ux", "u+1/u", ["|u|"]),
    ("ux", "ln(u^2)", ["|u^2|"]),
    ("ux", "ln(u^2)-ln(u^4)", ["|u^2|", "|u^4|"]),  # the terms' infinities cancel in a sum
    ("ux", "u", []),
    ("2*ux", "u", []),
    ("u*ux", "u^2", []),
    # finite at u = 0, singular on u^2 = ux^2
    ("ux*(u^2-ux^2)+u/(u^2-ux^2)", "u", ["|u^2 - ux^2|"]),
    ("ux*exp(u)", "sqrt(u^2+1)", ["|u^2 + 1|"]),
    ("ux", "arctanh(u/2)", ["||0.5*u| - 1|"]),
])
def test_guard_armed_by_the_singular_loci(monkeypatch, f, g, loci):
    # run guards, at min_u_floor, the singular loci of f and g
    eq = EquationSpec.from_strings(f, g)
    assert [str(locus) for locus in eq.loci] == loci
    guarded = []
    real = pde.Stepper

    class RecordingStepper(real):
        def __init__(self, grid, eq, dealias=True, guard_floor=0.0):
            super().__init__(grid, eq, dealias, guard_floor)
            guarded.append((self.guard_floor, [str(locus) for locus in self.loci]))

    monkeypatch.setattr(pde, "Stepper", RecordingStepper)
    cfg = SimConfig(length=2 * math.pi, n=16, dt=1e-3, t_final=1e-3, equation=eq, min_u_floor=1e-3,
                    initial={"kind": "cosine_offset", "params": {"offset": 0.5, "amplitude": 0.1}})
    run(cfg)
    assert guarded == [(1e-3, loci)]


def test_one_program_over_f_and_g_per_equation(monkeypatch):
    # a run, every stepper and the split of the conditions share the
    # equation's Program over f, g and their singular loci
    eq = EquationSpec.from_strings("ux/u^3", "1/u^2")
    built = []
    real = ex.Program

    class CountingProgram(real):
        def __init__(self, exprs, **kwargs):
            built.append((list(exprs), kwargs))
            super().__init__(exprs, **kwargs)

    monkeypatch.setattr(ex, "Program", CountingProgram)
    steppers = [pde.Stepper(Grid(20.0, 64), eq) for _ in range(2)]
    run(SimConfig(length=20.0, n=64, dt=1e-3, t_final=2e-3, equation=eq,
                  initial={"kind": "cosine_offset", "params": {}}))
    conslaw._split_conditions(eq, SamplingPolicy(seed=1))
    classify(eq, SamplingPolicy(seed=1))
    monkeypatch.undo()
    assert [b for b in built if b[0][0] is eq.bound_f] == [([eq.bound_f, eq.bound_g], {"with_loci": True})]
    assert [locus.expr for locus in eq.program.loci] == [ex.parse("u")]
    assert all(s.program is eq.program for s in steppers)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_guard_stops_a_pole_family_run_on_its_locus():
    # f = ux + u/(u^2 - ux^2) is finite at u = 0; the data cross
    # u^2 = ux^2, and the guard names that locus
    eq = EquationSpec.from_strings("ux + u/(u^2-ux^2)", "u")
    cfg = SimConfig(length=2 * math.pi, n=128, dt=1e-3, t_final=0.1, equation=eq,
                    initial={"kind": "cosine_offset", "params": {"offset": 0.5, "amplitude": 1.0}})
    res = run(cfg)
    assert res.status == STATUS_SINGULAR
    assert res.message.replace(" ", "") == "|u^2-ux^2|fellbelowthefloor0.001"
    assert len(res.series.t) < 101  # partial series retained
    # data off the locus run to the end
    res = run(SimConfig(length=2 * math.pi, n=128, dt=1e-3, t_final=0.1, equation=eq,
                        initial={"kind": "cosine_offset", "params": {}}))
    assert res.status == STATUS_COMPLETED


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_guard_stops_a_simple_pole():
    # gaussian tails fall below the floor at once; g = 1/u is singular there
    res = run(_gaussian_cfg(equation=EquationSpec.from_strings("0", "1/u"), t_final=0.01))
    assert res.status == STATUS_SINGULAR
    assert "floor" in res.message


def test_guard_not_armed_for_regular_equations():
    # CH evaluates fine at u = 0; gaussian tails below the floor must not abort
    cfg = _gaussian_cfg(t_final=0.05)
    res = run(cfg)
    assert res.status == STATUS_COMPLETED


def test_initial_data_kinds():
    for kind, params in (
        ("gaussian", {"amplitude": 0.5, "width": 2.0}),
        ("cosine_offset", {"offset": 2.0, "amplitude": 0.5}),
        ("mollified_peakon", {"amplitude": 1.0}),
        ("solitary_wave", {"b": 0.5, "c": 1.0}),
    ):
        cfg = SimConfig(
            length=40.0, n=256, dt=1e-3, t_final=1.0,
            equation=CH, initial={"kind": kind, "params": params},
        )
        m = initial_data(cfg)
        assert np.all(np.isfinite(m))
    with pytest.raises(ValueError):
        initial_data(_gaussian_cfg(initial={"kind": "sawtooth", "params": {}}))


def test_solitary_initial_data_sums_images():
    # u(0) = the profile plus pairs of images j*L away, up to the first pair
    # below 1e-12 of the peak, each inverted on its own
    for length, n, b, c, centers in ((20.0, 1024, 0.5, 1.0, (10.0, 3.7, 16.25)),
                                     (40.0, 512, 0.3, 2.0, (20.0,))):
        for x0 in centers:
            cfg = SimConfig(length, n, 1e-3, 1.0, SINGULAR, {
                "kind": "solitary_wave", "params": {"b": b, "c": c, "center": x0}})
            xi = np.mod(cfg.grid.x - x0 + length / 2.0, length) - length / 2.0
            u0 = _solitary_U(b, c, xi)
            peak = float(np.max(u0))
            for j in range(1, 64):
                left = _solitary_U(b, c, np.abs(xi + j * length))
                right = _solitary_U(b, c, np.abs(xi - j * length))
                u0 = u0 + left + right
                if max(np.max(left), np.max(right)) < 1e-12 * peak:
                    break
            m0 = np.fft.irfft((1.0 + cfg.grid.k**2) * np.fft.rfft(u0), n=n)
            assert np.array_equal(initial_data(cfg), m0)


def _count_profile_calls(monkeypatch):
    # initial_data inverts through the U-only core of twave.solitary_profile
    sizes = []
    invert = pde._solitary_U

    def counted(b, c, xi):
        sizes.append(np.size(xi))
        return invert(b, c, xi)

    monkeypatch.setattr(pde, "_solitary_U", counted)
    return sizes


def test_solitary_initial_data_all_image_pairs(monkeypatch):
    # a slow tail (decay rate b/sqrt(2)) in a small box: no pair falls
    # below 1e-12 of the peak, so all 63 are summed
    length, n, b, c, x0 = 2.0, 64, 0.05, 1.0, 0.7
    cfg = SimConfig(length, n, 1e-3, 1.0, SINGULAR, {
        "kind": "solitary_wave", "params": {"b": b, "c": c, "center": x0}})
    xi = np.mod(cfg.grid.x - x0 + length / 2.0, length) - length / 2.0
    u0 = _solitary_U(b, c, xi)
    peak = float(np.max(u0))
    for j in range(1, 64):
        left = _solitary_U(b, c, np.abs(xi + j * length))
        right = _solitary_U(b, c, np.abs(xi - j * length))
        u0 = u0 + left + right
    assert max(np.max(left), np.max(right)) >= 1e-12 * peak
    m0 = np.fft.irfft((1.0 + cfg.grid.k**2) * np.fft.rfft(u0), n=n)
    sizes = _count_profile_calls(monkeypatch)
    assert np.array_equal(initial_data(cfg), m0)
    assert sizes == [n + 63, 2 * 63 * n]


def test_solitary_initial_data_inverts_twice(monkeypatch):
    # the transport config: one inversion fixes the peak and the number
    # of image pairs, a second inverts those pairs
    cfg = SimConfig(20.0, 1024, 4e-5, 1.0, SINGULAR, {
        "kind": "solitary_wave", "params": {"b": 0.5, "c": 1.0, "center": 7.3}})
    sizes = _count_profile_calls(monkeypatch)
    initial_data(cfg)
    assert len(sizes) == 2
    assert sizes[0] == 1024 + 63
    assert sizes[1] % (2 * 1024) == 0 and 0 < sizes[1] < 2 * 63 * 1024


def test_series_and_energy_identity():
    # E(mu=2, nu=0) equals the L2 norm of m on the periodic grid
    cfg = _gaussian_cfg(t_final=0.2)
    res = run(cfg)
    s = res.series.arrays()
    assert np.allclose(s["E"], s["L2msq"], rtol=1e-12)


def test_dp_conserves_momentum_not_h1():
    # Degasperis-Procesi keeps the momentum flat while the H1 integral moves
    dp = EquationSpec.from_strings("2*ux", "u")
    cfg = SimConfig(40.0, 512, 1e-3, 2.0, dp,
                    {"kind": "gaussian", "params": {}}, series_dt=0.25)
    res = run(cfg)
    assert ConservedSeries.relative_drift(res.series.M) <= 1e-8
    assert ConservedSeries.relative_drift(res.series.H1sq) >= 1e-3


def test_apriori_bounds_reports():
    assert check_apriori_bounds(ConservedSeries(), l2m_conserved=False).status == "not applicable"
    empty = ConservedSeries()
    assert check_apriori_bounds(empty).status == "degenerate (zero data)"

    cfg = SimConfig(
        length=40.0, n=256, dt=1e-3, t_final=0.5, equation=SINGULAR,
        initial={"kind": "cosine_offset", "params": {"offset": 2.0, "amplitude": 0.5}},
        series_dt=0.1,
    )
    res = run(cfg)
    rep = check_apriori_bounds(res.series)
    assert rep.status == "holds"
    assert rep.sup_u_margin > 0 and rep.sup_ux_margin > 0 and rep.norm_margin > 0


def test_series_csv_round_trip(tmp_path):
    cfg = _gaussian_cfg(t_final=0.05, series_dt=0.01)
    res = run(cfg)
    path = tmp_path / "series.csv"
    write_series_csv(path, res.series)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,M,H1sq,L2msq,E,sup_u,sup_ux,min_u"
    back = [float(v) for v in rows[1].split(",")]
    assert back[1] == res.series.M[0]  # 17 digits round-trip exactly


def _csv_module_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.17g}" for v in row])
    return path.read_bytes()


def test_csv_writers_match_csv_module_bytes(tmp_path):
    special = np.array([-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 0.1, -2.5])
    series = ConservedSeries()
    for i in range(8):
        for j, key in enumerate(("t", "M", "H1sq", "L2msq", "E", "sup_u", "sup_ux", "min_u")):
            getattr(series, key).append(float(special[(i + j) % 8]))
    write_series_csv(tmp_path / "series.csv", series)
    arrays = series.arrays()
    header = ["t", "M", "H1sq", "L2msq", "E", "sup_u", "sup_ux", "min_u"]
    expected = _csv_module_bytes(tmp_path / "ref_series.csv", header,
                                 zip(*(arrays[k] for k in header)))
    got = (tmp_path / "series.csv").read_bytes()
    assert got == expected
    assert got.count(b"\r\n") == 9 and got.count(b"\n") == 9

    grid = Grid(4.0, 16)
    u = np.resize(special, 16)
    snapshots = [(0.0, u, -u), (1e300, u[::-1].copy(), 3.0 * u)]
    write_snapshots_csv(tmp_path / "snaps.csv", grid, snapshots)
    rows = [(t, grid.x[j], us[j], ms[j]) for t, us, ms in snapshots for j in range(grid.n)]
    expected = _csv_module_bytes(tmp_path / "ref_snaps.csv", ["t", "x", "u", "m"], rows)
    got = (tmp_path / "snaps.csv").read_bytes()
    assert got == expected
    assert got.count(b"\r\n") == 33 and got.count(b"\n") == 33


def test_read_config_validation(tmp_path):
    doc = {
        "L": 40.0, "N": 256, "dt": 1e-3, "t_final": 0.1,
        "equation": {"f": "ux", "g": "u"},
        "initial": {"kind": "gaussian", "params": {}},
    }
    cfg = read_config(json.dumps(doc))
    assert cfg.n == 256
    assert cfg.grid is cfg.grid is read_config(json.dumps(doc)).grid
    with pytest.raises(ValueError):
        read_config(json.dumps({"L": 40.0}))
    bad = dict(doc, equation={"f": "0", "g": "0"})
    with pytest.raises(ValueError):
        read_config(json.dumps(bad))
    # a non-positive series step or a negative snapshot time is an error,
    # not "record every step" or "snapshot at t = 0"
    for extra in ({"series_dt": 0.0}, {"series_dt": -1e-3},
                  {"output": {"snapshot_times": [0.05, -0.01]}}):
        with pytest.raises(ValueError):
            read_config(json.dumps(dict(doc, **extra)))
    with pytest.raises(ValueError):
        read_config(json.dumps([doc]))
    # a non-finite number is a config error: NaN passes every comparison,
    # and an infinite end time, series step or snapshot time overflows a step count
    for key, value in (("L", math.nan), ("dt", math.nan), ("t_final", math.inf),
                       ("blowup_threshold", math.nan), ("min_u_floor", math.inf),
                       ("energy_mu", math.nan), ("energy_nu", -math.inf),
                       ("series_dt", math.inf), ("output", {"snapshot_times": [math.inf]})):
        with pytest.raises(ValueError, match="invalid simulation config"):
            read_config(json.dumps(dict(doc, **{key: value})))
    # a grid the solver cannot use is a config error, not a failure inside run
    for key, value in (("N", 100), ("N", 8), ("N", 0), ("L", 0.0), ("L", -40.0)):
        with pytest.raises(ValueError, match="invalid simulation config"):
            read_config(json.dumps(dict(doc, **{key: value})))
    # N is a JSON integer and the other numeric fields JSON numbers:
    # int(256.7), float("40") or a series step of true would run a
    # config nobody wrote
    for key, value in (("N", 256.7), ("N", 256.0), ("N", "256"), ("N", True), ("L", "40"),
                       ("dt", "0.001"), ("t_final", True), ("energy_mu", "2"),
                       ("min_u_floor", None), ("series_dt", True),
                       ("output", {"snapshot_times": [True]}), ("output", ["snapshots.csv"]),
                       ("output", {"series_path": 5}), ("output", {"snapshot_path": ["snaps.csv"]})):
        with pytest.raises(ValueError, match="invalid simulation config"):
            read_config(json.dumps(dict(doc, **{key: value})))
    # a blow-up threshold <= 0 reports wave breaking on any run, and a
    # negative floor disarms the singularity guard
    for key, value in (("blowup_threshold", 0.0), ("blowup_threshold", -1.0),
                       ("min_u_floor", -1e-3)):
        with pytest.raises(ValueError, match=f"invalid simulation config: {key} must be"):
            read_config(json.dumps(dict(doc, **{key: value})))
    assert read_config(json.dumps(dict(doc, min_u_floor=0.0))).min_u_floor == 0.0
    assert read_config(json.dumps(dict(doc, L=40))).length == 40.0
    assert read_config(json.dumps(dict(doc, series_dt=None))).series_dt is None
    # dealias takes a JSON boolean only: bool("false") would be True
    assert read_config(json.dumps(dict(doc, dealias=False))).dealias is False
    for value in ("false", "true", 0, 1, None, [True]):
        with pytest.raises(ValueError, match="invalid simulation config"):
            read_config(json.dumps(dict(doc, dealias=value)))
    # bad initial data is a config error, not a failure inside run
    for initial in ({"kind": "sawtooth", "params": {}},
                    {"kind": "solitary_wave", "params": {"b": 0.5}},
                    {"kind": "solitary_wave", "params": {"c": 1.0}},
                    {"kind": "solitary_wave", "params": {"b": 1.0, "c": 1.0}},
                    {"kind": "solitary_wave", "params": {"b": 0.5, "c": 0.0}},
                    {"kind": "solitary_wave", "params": {"b": 0.5, "c": math.nan}},
                    {"kind": "solitary_wave", "params": {"b": 0.5, "c": math.inf}},
                    {"kind": "solitary_wave", "params": {"b": 0.5, "c": 1.0, "center": "mid"}},
                    {"kind": "gaussian", "params": {"amplitude": "x"}},
                    {"kind": "gaussian", "params": {"width": math.inf}},
                    {"kind": "gaussian", "params": {"center": None}},
                    {"kind": "gaussian", "params": [1.0]},
                    {"kind": "cosine_offset", "params": {"offset": math.nan}},
                    {"kind": "cosine_offset", "params": {"mode": 1.5}},
                    {"kind": "cosine_offset", "params": {"mode": "2"}},
                    {"kind": "mollified_peakon", "params": {"mollify_width_dx": "wide"}}):
        with pytest.raises(ValueError, match="invalid simulation config"):
            read_config(json.dumps(dict(doc, initial=initial)))
    # a parameter its kind does not read is an error, not a silent default
    for initial, name in (({"kind": "gaussian", "params": {"amplitdue": 5.0, "offset": 3}}, "amplitdue"),
                          ({"kind": "cosine_offset", "params": {"width": 1.0}}, "width"),
                          ({"kind": "mollified_peakon", "params": {"mode": 2}}, "mode"),
                          ({"kind": "solitary_wave", "params": {"b": 0.5, "c": 1.0, "amplitude": 1.0}},
                           "amplitude")):
        with pytest.raises(ValueError, match=f"invalid simulation config: unknown {initial['kind']} parameter '{name}'"):
            read_config(json.dumps(dict(doc, initial=initial)))


def test_read_config_leaves_the_defaults_to_sim_config():
    doc = {
        "L": 40.0, "N": 256, "dt": 1e-3, "t_final": 0.1,
        "equation": {"f": "ux", "g": "u"},
        "initial": {"kind": "gaussian", "params": {}},
    }
    eq = EquationSpec.from_strings("ux", "u")
    required = SimConfig(40.0, 256, 1e-3, 0.1, eq, {"kind": "gaussian", "params": {}})
    assert read_config(json.dumps(doc)) == required
    assert read_config(json.dumps(dict(doc, series_dt=None, output={}))) == required
    options = {"dealias": False, "series_dt": 0.01, "energy_mu": 3.0, "energy_nu": 0.5,
               "blowup_threshold": 50.0, "min_u_floor": 0.0}
    got = read_config(json.dumps(dict(doc, output={"snapshot_times": [0.05]}, **options)))
    assert got == SimConfig(40.0, 256, 1e-3, 0.1, eq, doc["initial"], snapshot_times=(0.05,), **options)


# the reference runs of criterion 6 at N=512, the solitary wave of
# test_solitary_wave_transport_in_simulator and the mollified peakon of
# criterion 9 at N=1024, and the smallest grid and a large one
STEPPER_CASES = {
    "camassa_holm": dict(length=40.0, n=512, dt=1e-3, equation=CH,
                         initial={"kind": "gaussian", "params": {"center": 17.3}}),
    "singular": dict(length=40.0, n=512, dt=1e-3, equation=SINGULAR,
                     initial={"kind": "cosine_offset", "params": {"offset": 2.0, "amplitude": 0.5}}),
    "solitary": dict(length=20.0, n=1024, dt=4e-5, equation=SINGULAR,
                     initial={"kind": "solitary_wave", "params": {"b": 0.5, "c": 1.0}}),
    "peakon": dict(length=4.0, n=1024, dt=1e-4, equation=SINGULAR, min_u_floor=1e-3,
                   initial={"kind": "mollified_peakon", "params": {}}),
    "singular_n16": dict(length=40.0, n=16, dt=1e-3, equation=SINGULAR,
                         initial={"kind": "cosine_offset", "params": {"offset": 2.0, "amplitude": 0.5}}),
    "camassa_holm_n2048": dict(length=40.0, n=2048, dt=1e-3, equation=CH,
                               initial={"kind": "gaussian", "params": {"center": 17.3}}),
    # guarded sums, with a guard that never trips: two loci, and terms
    # summed in f and in g
    "two_loci": dict(length=40.0, n=128, dt=1e-3, equation=EquationSpec.from_strings("ux", "ln(u^2)-ln(u^4)"),
                     initial={"kind": "cosine_offset", "params": {"offset": 2.0, "amplitude": 0.5}}),
    "sums": dict(length=40.0, n=128, dt=1e-3, equation=EquationSpec.from_strings("ux + 0.5*ux/u", "u + 1/u"),
                 initial={"kind": "cosine_offset", "params": {"offset": 2.0, "amplitude": 0.5}}),
}


@pytest.mark.parametrize("case, dealias", [
    ("camassa_holm", True), ("camassa_holm", False),
    ("singular", True), ("singular", False),
    ("solitary", True), ("peakon", True),
    ("singular_n16", True), ("camassa_holm_n2048", True),
    ("two_loci", True), ("sums", True), ("sums", False),
])
def test_run_equals_plain_stepper(case, dealias, plain_run):
    steps = 50
    spec = STEPPER_CASES[case]
    cfg = SimConfig(t_final=steps * spec["dt"], dealias=dealias, **spec)
    res = run(cfg)
    (u, ux, m), series = plain_run(cfg, steps)
    assert res.status == STATUS_COMPLETED and len(res.series.t) == steps + 1
    for a, b in ((res.final.m, m), (res.final.u, u), (res.final.ux, ux)):
        assert np.array_equal(a, b)
    want = series.arrays()
    for key, column in res.series.arrays().items():
        assert np.array_equal(column, want[key]), key


def test_stage_singular_hit_matches_plain_stepper(plain_stepper):
    cfg = _gaussian_cfg(n=16, equation=SINGULAR, initial={"kind": "cosine_offset", "params": {}})
    grid = cfg.grid
    st = GridState.from_m(grid, initial_data(cfg))

    def outcome(stepper, u, ux, m):
        try:
            return stepper.rates(u, ux, m)
        except pde.SingularHit as hit:
            return str(hit), hit.location

    # one non-finite value at each node in turn: u = 0 makes f = ux/u^3
    # and g = 1/u^2 NaN, ux = +-inf makes f alone infinite, and m = NaN
    # leaves f and g finite, which is not a hit
    for j in range(grid.n):
        for name, value, hit in (("u", 0.0, True), ("ux", math.inf, True),
                                 ("ux", -math.inf, True), ("m", math.nan, False)):
            state = {"u": st.u.copy(), "ux": st.ux.copy(), "m": st.m.copy()}
            state[name][j] = value
            got, want = (outcome(stepper, state["u"], state["ux"], state["m"])
                         for stepper in (pde.Stepper(grid, SINGULAR), plain_stepper(grid, SINGULAR)))
            if hit:
                assert isinstance(got, tuple) and got == want == (
                    "f or g is non-finite on the grid", float(grid.x[j])), (name, j)
            else:
                assert np.array_equal(got, want, equal_nan=True) and not np.isfinite(got).any(), (name, j)
    # finite f and g whose product overflows are not a singular hit
    huge = np.full(grid.n, 1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        got = pde.Stepper(grid, CH).rates(huge, huge, huge)
        want = plain_stepper(grid, CH).rates(huge, huge, huge)
    assert np.array_equal(got, want, equal_nan=True) and not np.isfinite(got).all()


def test_returned_states_share_no_buffer(monkeypatch):
    steppers = []

    class Recording(pde.Stepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            steppers.append(self)

    monkeypatch.setattr(pde, "Stepper", Recording)
    cfg = SimConfig(t_final=0.02, snapshot_times=(0.0, 0.01), **STEPPER_CASES["singular"])
    res = run(cfg)
    (stepper,) = steppers
    final = [res.final.m.copy(), res.final.u.copy(), res.final.ux.copy()]
    snaps = [(u.copy(), m.copy()) for _, u, m in res.snapshots]
    mh = np.fft.rfft(res.final.m)
    k = stepper.rates(res.final.u, res.final.ux, res.final.m)
    k_copy = k.copy()
    state = stepper.state(mh, 0.0)
    state_copy = [state.m.copy(), state.u.copy(), state.ux.copy()]
    for _ in range(3):
        mh = stepper.step(mh, stepper.state(mh, 0.0), cfg.dt)
    assert all(np.array_equal(a, b) for a, b in zip((res.final.m, res.final.u, res.final.ux), final))
    assert all(np.array_equal(u, su) and np.array_equal(m, sm) for (_, u, m), (su, sm) in zip(res.snapshots, snaps))
    assert np.array_equal(k, k_copy)
    assert all(np.array_equal(a, b) for a, b in zip((state.m, state.u, state.ux), state_copy))


def test_run_makes_eight_fft_calls_per_step(monkeypatch):
    calls = {"rfft": 0, "irfft": 0}

    def counting(name):
        transform = getattr(pde, "_" + name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)
        return counted

    # every transform of pde goes through these two handles
    for name in calls:
        monkeypatch.setattr(pde, "_" + name, counting(name))
    steps = 10
    res = run(_gaussian_cfg(t_final=steps * 1e-3))
    assert res.status == STATUS_COMPLETED and res.final.t == pytest.approx(steps * 1e-3)
    # initial_data: one rfft and one irfft; run: the rfft of m(0) and the
    # irfft of its state; a step: 4 rates (rfft), 3 stage states and the
    # state after the step (irfft)
    assert calls == {"rfft": 2 + 4 * steps, "irfft": 2 + 4 * steps}
