"""Periodic pseudospectral method-of-lines solver for
m_t = -f(u,ux)*m - (g(u,ux)*m)_x with u recovered from m by Helmholtz
inversion u_hat = m_hat/(1+k^2).

The evolved variable is the spectrum m_hat = rfft(m) (the inversion is
smoothing and unconditionally stable); time stepping is classical RK4 at
fixed step.  Each RK stage makes two stacked FFT calls: one irfft of
m_hat times the cached lift [1/(1+k^2), ik/(1+k^2), 1] gives u, u_x and
m on the grid, and one rfft of [f*m, g*m] gives the product spectra,
which are dealiased with the 2/3 rule: 8 FFT calls per step.  f and g
are one expr.Program per stepper, the evaluator the verdicts use.  A step
runs in buffers the Stepper allocates once (products, spectra, the nodal
values of stages 2-4, the stage rates k1-k4 and their sum), by the same
floating-point operations in the same order as a step that allocates
every array, so its results are the same to the bit; nothing a Stepper
returns shares those buffers.  A stage tests its products for
non-finite values through mode 0 of their spectra, the sum of each row.
The nodal state after a step is stage 1 of the next.  Wave breaking is
detected, not resolved: the run stops when sup|u_x| crosses the
configured threshold.  Equations whose f or g has a singular locus (a
pole or branch point, expr.singular_loci) get a floor on the value of
every locus on the grid, read from the same program pass.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import expr as ex
from .conslaw import EquationSpec
from .twave import _check_bc, _solitary_U

__all__ = [
    "Grid",
    "GridState",
    "Stepper",
    "SimConfig",
    "ConservedSeries",
    "SimResult",
    "BoundsReport",
    "helmholtz_u",
    "eval_on_grid",
    "rhs",
    "run",
    "initial_data",
    "check_apriori_bounds",
    "write_series_csv",
    "write_snapshots_csv",
    "read_config",
]

STATUS_COMPLETED = "completed"
STATUS_WAVE_BREAKING = "wave-breaking detected"
STATUS_SINGULAR = "singularity guard triggered"

_INITIAL_KINDS = ("gaussian", "cosine_offset", "mollified_peakon", "solitary_wave")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L) with rfft wavenumbers."""

    length: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.length < math.inf:
            raise ValueError(f"domain length must be positive and finite, got {self.length}")
        if self.n < 16 or self.n & (self.n - 1):
            raise ValueError("node count must be a power of two, at least 16")

    @property
    def dx(self) -> float:
        return self.length / self.n

    # the cached arrays are read-only and x_text a tuple: every caller
    # shares them

    @cached_property
    def x(self) -> np.ndarray:
        return _frozen(np.arange(self.n) * self.dx)

    @cached_property
    def x_text(self) -> tuple:
        """x to 17 significant digits, as the snapshot CSV writes it."""
        return tuple(["%.17g" % v for v in self.x.tolist()])

    @cached_property
    def k(self) -> np.ndarray:
        return _frozen(2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        # 2/3 rule: keep modes with index <= n/3
        return _frozen((np.arange(self.n // 2 + 1) <= self.n // 3).astype(float))

    @cached_property
    def ik(self) -> np.ndarray:
        """Spectral derivative multiplier ik with its Nyquist entry 0.

        irfft drops the imaginary Nyquist part that ik makes of a real
        spectrum, so the 0 changes no nodal derivative; it keeps the
        Nyquist entry of an evolved spectrum real.
        """
        dk = 1j * self.k
        dk[-1] = 0.0
        return _frozen(dk)

    @cached_property
    def lift(self) -> np.ndarray:
        """Rows map m_hat to the spectra of u, u_x and m."""
        inv = 1.0 / (1.0 + self.k**2)
        return _frozen(np.stack([inv, self.ik * inv, np.ones_like(inv)]))

    def integral(self, vals: np.ndarray) -> float:
        # trapezoid rule on a periodic grid = dx * sum (spectrally exact
        # for trigonometric polynomials below Nyquist)
        return float(self.dx * np.sum(vals))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def helmholtz_u(grid: Grid, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u and u_x from m via u_hat = m_hat/(1+k^2) and spectral derivative."""
    u, ux = np.fft.irfft(grid.lift[:2] * np.fft.rfft(m), n=grid.n)
    return u, ux


@dataclass(frozen=True)
class GridState:
    t: float
    m: np.ndarray
    u: np.ndarray
    ux: np.ndarray

    @staticmethod
    def from_m(grid: Grid, m: np.ndarray, t: float = 0.0) -> "GridState":
        u, ux = helmholtz_u(grid, m)
        return GridState(t, m, u, ux)


def eval_on_grid(e: ex.Expr, env: dict) -> np.ndarray:
    """Vectorized evaluation of an Expr over numpy arrays (NaN off its domain)."""
    return _sum_terms(ex.compile_terms(e)(env))


def _sum_terms(terms: list) -> np.ndarray:
    return reduce(operator.add, terms)  # left to right


class SingularHit(RuntimeError):
    """f or g evaluated non-finite, or came within the floor of a singular locus, at grid nodes."""

    def __init__(self, message: str, location: float | None = None):
        super().__init__(message)
        self.location = location


@dataclass(frozen=True)
class SimConfig:
    """One simulation: grid, step, equation, initial data, outputs.

    initial: {"kind": "gaussian" | "cosine_offset" | "mollified_peakon" |
    "solitary_wave", "params": {...}}.  min_u_floor >= 0 is the floor on
    each singular locus of f or g (see Stepper), compared with that
    locus's own value on the grid (expr.Locus.distance), not with one
    distance in (u, u_x): with 1e-3, a pole in 1/u trips at |u| < 0.001,
    ln(u^2) at |u^2| < 0.001 (|u| < 0.032), and a pole in u^2 - ux^2 at
    |u^2 - ux^2| < 0.001.  It applies only when f or g has a locus, and 0
    turns the guard off.  blowup_threshold > 0 stops the run on sup|u_x|
    (wave breaking).
    """

    length: float
    n: int
    dt: float
    t_final: float
    equation: EquationSpec
    initial: dict
    dealias: bool = True
    series_dt: float | None = None
    energy_mu: float = 2.0
    energy_nu: float = 0.0
    blowup_threshold: float = 1e3
    min_u_floor: float = 1e-3
    snapshot_times: tuple = ()

    def __post_init__(self):
        # NaN passes every comparison below, and an infinite step or end
        # time overflows the step count
        for name in ("length", "dt", "t_final", "blowup_threshold", "min_u_floor", "energy_mu", "energy_nu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        # a threshold <= 0 ends every run at its first step as wave breaking,
        # and a negative floor disarms the guard without a word
        if self.blowup_threshold <= 0:
            raise ValueError(f"blowup_threshold must be positive, got {self.blowup_threshold!r}")
        if self.min_u_floor < 0:
            raise ValueError(f"min_u_floor must be 0 (no guard) or positive, got {self.min_u_floor!r}")
        # a bad length or node count is a config error, not a failure in run
        _shared_grid(self.length, self.n)
        if not isinstance(self.dealias, bool):
            raise ValueError(f"dealias must be true or false, got {self.dealias!r}")
        if self.series_dt is not None and not self.series_dt > 0:
            raise ValueError("series_dt must be positive")
        if any(not t >= 0 for t in self.snapshot_times):
            raise ValueError("snapshot times must be non-negative")
        kind = self.initial.get("kind")
        if kind not in _INITIAL_KINDS:
            raise ValueError(f"unknown initial-data kind {kind!r}")
        p = self.initial.get("params", {})
        if not isinstance(p, dict):
            raise ValueError("initial-data params must be an object")
        # the parameters initial_data reads, converted as it converts them;
        # b and c of a solitary wave are checked below
        for key in ("amplitude", "center", "width", "offset", "mollify_width_dx"):
            if key in p:
                try:
                    finite = math.isfinite(float(p[key]))
                except (TypeError, ValueError):
                    finite = False
                if not finite:
                    raise ValueError(f"initial-data parameter {key} must be a finite number, got {p[key]!r}")
        if "mode" in p:
            try:
                operator.index(p["mode"])
            except TypeError:
                raise ValueError(f"initial-data parameter mode must be an integer, got {p['mode']!r}") from None
        if kind == "solitary_wave":
            if "b" not in p or "c" not in p:
                raise ValueError("solitary_wave initial data needs params b and c")
            _check_bc(float(p["b"]), float(p["c"]))

    @property
    def grid(self) -> Grid:
        """The Grid of (length, n), shared by every config on it."""
        return _shared_grid(self.length, self.n)


@lru_cache(maxsize=8)
def _shared_grid(length: float, n: int) -> Grid:
    # one Grid per (length, n), not per config: a Grid is immutable, and a
    # batch of configs on one grid would otherwise hold a copy of x, k and
    # lift each
    return Grid(length, n)


def read_config(source: str | dict) -> SimConfig:
    """Build a SimConfig from a JSON document (path contents or dict)."""
    cfg = json.loads(source) if isinstance(source, str) else source
    if not isinstance(cfg, dict):
        raise ValueError("invalid simulation config: expected a JSON object")
    try:
        eq_raw = cfg["equation"]
        eq = EquationSpec.from_strings(
            eq_raw["f"], eq_raw["g"], eq_raw.get("params", {})
        )
        out = cfg.get("output", {})
        n = cfg["N"]
        # a fractional or quoted N would silently run on another grid
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"N must be an integer, got {n!r}")
        series_dt = cfg.get("series_dt")
        return SimConfig(
            length=_number("L", cfg["L"]),
            n=n,
            dt=_number("dt", cfg["dt"]),
            t_final=_number("t_final", cfg["t_final"]),
            equation=eq,
            initial=dict(cfg["initial"]),
            dealias=cfg.get("dealias", True),
            series_dt=None if series_dt is None else _number("series_dt", series_dt),
            energy_mu=_number("energy_mu", cfg.get("energy_mu", 2.0)),
            energy_nu=_number("energy_nu", cfg.get("energy_nu", 0.0)),
            blowup_threshold=_number("blowup_threshold", cfg.get("blowup_threshold", 1e3)),
            min_u_floor=_number("min_u_floor", cfg.get("min_u_floor", 1e-3)),
            snapshot_times=tuple(_number("snapshot_times", t) for t in out.get("snapshot_times", ())),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"invalid simulation config: {err}") from err


def _number(key: str, value) -> float:
    """value as a float; it must be a JSON number, not a string or a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# initial data


def initial_data(config: SimConfig) -> np.ndarray:
    """Nodal m(0) from the configured u(0); u -> m is spectral (1+k^2)."""
    grid = config.grid
    x = grid.x
    kind = config.initial.get("kind")
    p = config.initial.get("params", {})
    L = grid.length
    if kind == "gaussian":
        a = float(p.get("amplitude", 1.0))
        x0 = float(p.get("center", L / 2.0))
        w = float(p.get("width", 1.0))
        u0 = a * np.exp(-(((x - x0) / w) ** 2))
    elif kind == "cosine_offset":
        c0 = float(p.get("offset", 2.0))
        a = float(p.get("amplitude", 0.5))
        mode = int(p.get("mode", 1))
        u0 = c0 + a * np.cos(2.0 * np.pi * mode * x / L)
    elif kind == "mollified_peakon":
        a = float(p.get("amplitude", 1.0))
        x0 = float(p.get("center", L / 2.0))
        width_dx = float(p.get("mollify_width_dx", 3.0))
        # periodized peakon, then Gaussian mollification as a spectral filter
        u0 = np.zeros_like(x)
        for j in (-1, 0, 1):
            u0 += a * np.exp(-np.abs(x - x0 - j * L))
        sigma = width_dx * grid.dx
        u0 = np.fft.irfft(np.fft.rfft(u0) * np.exp(-0.5 * (grid.k * sigma) ** 2), n=grid.n)
    elif kind == "solitary_wave":
        b = float(p["b"])
        c = float(p["c"])
        x0 = float(p.get("center", L / 2.0))
        xi = np.mod(x - x0 + L / 2.0, L) - L / 2.0
        # periodize by summing image pairs j = 1, 2, ... up to the first
        # that falls below 1e-12 of the peak; a plain wrap would leave a
        # derivative kink at the box edge whose radiation pollutes the
        # transport.  U decreases with |xi| and the computed U follows it
        # to a few ulps, so a pair's largest value is, to a few ulps, U at
        # its nearest node.  One inversion of xi and of each pair's
        # nearest |xi| gives the peak and the number of pairs, a second
        # inverts those pairs, and they are summed in order of j.  With
        # |xi| <= L/2, rounded xi + jL and xi - jL keep their signs and
        # their order in xi, so the nearest come from the extreme nodes.
        shifts = L * np.arange(1, 64)
        nearest = np.minimum(xi.min() + shifts, np.abs(xi.max() - shifts))
        first = _solitary_U(b, c, np.concatenate([xi, nearest]))
        u0, pair_max = first[: xi.size], first[xi.size:]
        peak = float(np.max(u0))
        below = np.flatnonzero(pair_max < 1e-12 * peak)
        shifts = shifts[: below[0] + 1 if below.size else len(shifts), None]
        images = _solitary_U(b, c, np.abs(np.stack([xi + shifts, xi - shifts], axis=1)))
        for left, right in images:
            u0 = u0 + left + right
    else:
        raise ValueError(f"unknown initial-data kind {kind!r}")
    uh = np.fft.rfft(u0)
    return np.fft.irfft((1.0 + grid.k**2) * uh, n=grid.n)


# ---------------------------------------------------------------------------
# right-hand side and stepping


class Stepper:
    """Classical RK4 on the spectrum m_hat for one grid and equation.

    guard_floor > 0 arms the guard on the singular loci of f and g
    (EquationSpec.loci), read from the pass over f and g.  Stage rates
    raise SingularHit when a locus's value on the grid comes within
    guard_floor of the locus (expr.Locus.distance), naming the locus, or
    when f or g is non-finite on the grid.

    A step runs in buffers allocated here, once: the product block
    (2, N) and its spectra (2, N/2+1), the lifted spectrum (3, N/2+1)
    and the nodal block (3, N) of stages 2-4, the stage rates k1-k4, the
    stage spectrum and the accumulator of the rate sum.  rates(..., out=)
    writes the rate into out; without out it returns a fresh array.
    Nothing that rates, state or step returns shares a buffer of the
    stepper.
    """

    def __init__(self, grid: Grid, eq: EquationSpec, dealias: bool = True,
                 guard_floor: float = 0.0):
        self.grid = grid
        self.program = eq.program
        self.loci = eq.loci
        self._env = {"u": None, "ux": None, "x": grid.x}
        self.guard_floor = guard_floor
        mask = grid.dealias_mask if dealias else np.ones_like(grid.k)
        # m_hat_t = weights[0]*rfft(f*m) + weights[1]*rfft(g*m)
        self.weights = np.stack([-mask, -mask * grid.ik])
        modes = grid.n // 2 + 1
        self._products = np.empty((2, grid.n))
        self._spectra = np.empty((2, modes), dtype=complex)
        self._lifted = np.empty((3, modes), dtype=complex)
        self._nodes = np.empty((3, grid.n))
        self._k = np.empty((4, modes), dtype=complex)
        self._stage = np.empty(modes, dtype=complex)
        self._sum = np.empty(modes, dtype=complex)

    def _nodal(self, mh: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.fft.irfft(np.multiply(self.grid.lift, mh, out=self._lifted), n=self.grid.n, out=out)

    def state(self, mh: np.ndarray, t: float) -> GridState:
        """Nodal u, u_x and m of the spectrum mh."""
        u, ux, m = self._nodal(mh)
        return GridState(t, m, u, ux)

    def _terms(self, u: np.ndarray, ux: np.ndarray) -> list:
        """The term values of f, g and each singular locus on the grid."""
        self._env["u"], self._env["ux"] = u, ux
        return self.program(self._env)

    def rates(self, u: np.ndarray, ux: np.ndarray, m: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """m_hat_t at the nodal state (u, u_x, m), written into out if given."""
        x = self.grid.x
        f_terms, g_terms, *loci = self._terms(u, ux)
        if loci and self.guard_floor > 0.0:
            for locus, terms in zip(self.loci, loci):
                distance = locus.distance(_sum_terms(terms))
                if distance.min() < self.guard_floor:
                    raise SingularHit(f"{locus} fell below the floor {self.guard_floor:g}",
                                      float(x[distance.argmin()]))
        fv, gv = _sum_terms(f_terms), _sum_terms(g_terms)
        products = self._products
        np.multiply(fv, m, out=products[0])
        np.multiply(gv, m, out=products[1])
        spectra = np.fft.rfft(products, out=self._spectra)
        # mode 0 of a row is its sum (real), non-finite whenever one of
        # its products is; a non-finite f or g makes its product
        # non-finite, and a finite product that overflows is not a hit
        if not math.isfinite(spectra[0, 0].real + spectra[1, 0].real):
            bad = np.flatnonzero(~(np.isfinite(fv) & np.isfinite(gv)))
            if bad.size:
                raise SingularHit("f or g is non-finite on the grid", float(x[bad[0]]))
        np.multiply(self.weights, spectra, out=spectra)
        return np.add(spectra[0], spectra[1], out=out)

    def step(self, mh: np.ndarray, state: GridState, dt: float) -> np.ndarray:
        """m_hat one step on; `state` is the nodal state of mh (stage 1)."""
        k, stage, total = self._k, self._stage, self._sum
        self.rates(state.u, state.ux, state.m, out=k[0])
        # stage i is mh + c*dt*k[i-1], the operations of mh + c * dt * k
        for i, c in ((1, 0.5), (2, 0.5), (3, 1.0)):
            np.multiply(k[i - 1], c * dt, out=stage)
            np.add(mh, stage, out=stage)
            self.rates(*self._nodal(stage, out=self._nodes), out=k[i])
        # mh + (dt/6) * (((k1 + 2*k2) + 2*k3) + k4)
        np.multiply(k[1], 2.0, out=total)
        np.add(k[0], total, out=total)
        np.multiply(k[2], 2.0, out=stage)
        np.add(total, stage, out=total)
        np.add(total, k[3], out=total)
        np.multiply(total, dt / 6.0, out=total)
        return np.add(mh, total)

    def check_cfl(self, state: GridState, dt: float):
        """Warn when dt*max|g|*N/L > 1, at the line calling run."""
        gmax = float(np.max(np.abs(_sum_terms(self._terms(state.u, state.ux)[1]))))
        if dt * gmax * self.grid.n / self.grid.length > 1.0:
            warnings.warn("CFL sanity exceeded: dt*max|g|*N/L > 1", RuntimeWarning, stacklevel=3)


def rhs(grid: Grid, state: GridState, eq: EquationSpec, dealias: bool = True) -> np.ndarray:
    """Nodal m_t = -f*m - D_x(g*m), spectral D_x, dealiased products.

    u and u_x are taken from the state, as GridState.from_m makes them.
    """
    return np.fft.irfft(Stepper(grid, eq, dealias).rates(state.u, state.ux, state.m), n=grid.n)


# ---------------------------------------------------------------------------
# series, run loop


_SERIES_COLUMNS = ("t", "M", "H1sq", "L2msq", "E", "sup_u", "sup_ux", "min_u")


@dataclass
class ConservedSeries:
    """Time series of the monitored integrals on the periodic grid."""

    t: list = field(default_factory=list)
    M: list = field(default_factory=list)
    H1sq: list = field(default_factory=list)
    L2msq: list = field(default_factory=list)
    E: list = field(default_factory=list)
    sup_u: list = field(default_factory=list)
    sup_ux: list = field(default_factory=list)
    min_u: list = field(default_factory=list)

    def record(self, grid: Grid, state: GridState, mu: float, nu: float):
        u, ux, m = state.u, state.ux, state.m
        uxx = u - m
        self.t.append(state.t)
        self.M.append(grid.integral(m))
        self.H1sq.append(grid.integral(ux * ux + u * u))
        self.L2msq.append(grid.integral(m * m))
        self.E.append(grid.integral(uxx * uxx + mu * ux * ux + (mu - 1.0) * u * u + 2.0 * nu * u))
        self.sup_u.append(float(np.max(np.abs(u))))
        self.sup_ux.append(float(np.max(np.abs(ux))))
        self.min_u.append(float(np.min(u)))

    def arrays(self) -> dict:
        return {k: np.asarray(getattr(self, k)) for k in _SERIES_COLUMNS}

    @staticmethod
    def relative_drift(values) -> float:
        values = np.asarray(values)
        scale = max(abs(values[0]), 1e-300)
        return float(np.max(np.abs(values - values[0])) / scale)


@dataclass
class SimResult:
    status: str
    message: str
    series: ConservedSeries
    snapshots: list  # (t, u, m) triples
    final: GridState


def run(config: SimConfig, *, m0: np.ndarray | None = None) -> SimResult:
    """Integrate to t_final, recording the series every series_dt.

    m0 is the nodal m(0); by default initial_data(config).  Terminates
    early with a wave-breaking or singularity status (partial series
    retained).  The guard keeps min_u_floor away from every singular
    locus of f and g.
    """
    grid = config.grid
    if m0 is None:
        m0 = initial_data(config)
    elif np.shape(m0) != (grid.n,):
        raise ValueError(f"m0 has shape {np.shape(m0)}, the grid needs ({grid.n},)")
    stepper = Stepper(grid, config.equation, config.dealias, config.min_u_floor)
    mh = np.fft.rfft(m0)
    state = stepper.state(mh, 0.0)
    stepper.check_cfl(state, config.dt)

    n_steps = int(round(config.t_final / config.dt))
    series_every = 1
    if config.series_dt is not None:
        series_every = max(1, int(round(config.series_dt / config.dt)))

    snapshot_steps = {}
    for ts in config.snapshot_times:
        snapshot_steps.setdefault(min(n_steps, int(round(ts / config.dt))), ts)

    series = ConservedSeries()
    series.record(grid, state, config.energy_mu, config.energy_nu)
    snapshots = []
    if 0 in snapshot_steps:
        snapshots.append((state.t, state.u.copy(), state.m.copy()))

    status, message = STATUS_COMPLETED, ""
    # a stage transforms its products before it tests them, and a row holding
    # both +inf and -inf makes rfft warn; the stage then reports the hit
    with np.errstate(invalid="ignore"):
        for step in range(1, n_steps + 1):
            try:
                mh = stepper.step(mh, state, config.dt)
            except SingularHit as hit:
                status, message = STATUS_SINGULAR, str(hit)
                break
            new = stepper.state(mh, step * config.dt)
            if not np.isfinite(new.m).all():
                status, message = STATUS_SINGULAR, "non-finite nodal value"
                break
            state = new
            sup_ux = float(np.abs(state.ux).max())
            if sup_ux > config.blowup_threshold:
                status, message = STATUS_WAVE_BREAKING, f"sup|u_x| = {sup_ux:.3e} at t = {state.t:.6g}"
                series.record(grid, state, config.energy_mu, config.energy_nu)
                break
            if step % series_every == 0 or step == n_steps:
                series.record(grid, state, config.energy_mu, config.energy_nu)
            if step in snapshot_steps:
                snapshots.append((state.t, state.u.copy(), state.m.copy()))
    return SimResult(status, message, series, snapshots, state)


# ---------------------------------------------------------------------------
# a priori bounds


@dataclass(frozen=True)
class BoundsReport:
    status: str  # "holds" | "violated" | "not applicable" | "degenerate (zero data)"
    sup_u_margin: float | None = None
    sup_ux_margin: float | None = None
    norm_margin: float | None = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "sup_u_margin": self.sup_u_margin,
            "sup_ux_margin": self.sup_ux_margin,
            "norm_margin": self.norm_margin,
        }


def check_apriori_bounds(series: ConservedSeries, l2m_conserved: bool = True) -> BoundsReport:
    """Amplitude/gradient bounds from conservation of the m-L2 norm.

    At every sample time: sup|u| < (1/sqrt2)*||u0||_H1 < ||m0||_L2 and
    sup|u_x| < ||m0||_L2.  Violations are reported, not raised: they
    falsify either the scheme or the claimed family membership.
    """
    if not l2m_conserved:
        return BoundsReport("not applicable")
    if not series.t or series.H1sq[0] == 0.0:
        return BoundsReport("degenerate (zero data)")
    h1_0 = math.sqrt(series.H1sq[0])
    l2m_0 = math.sqrt(series.L2msq[0])
    sup_u = max(series.sup_u)
    sup_ux = max(series.sup_ux)
    margins = (
        h1_0 / math.sqrt(2.0) - sup_u,
        l2m_0 - sup_ux,
        l2m_0 - h1_0 / math.sqrt(2.0),
    )
    status = "holds" if all(m > 0.0 for m in margins) else "violated"
    return BoundsReport(status, margins[0], margins[1], margins[2])


# ---------------------------------------------------------------------------
# csv output (17 significant digits: round-trip exact doubles), the bytes
# csv.writer writes: numbers need no quoting, and rows end in \r\n


def _row_format(n_columns: int) -> str:
    return ",".join(["%.17g"] * n_columns) + "\r\n"


def write_series_csv(path: str, series: ConservedSeries):
    arrays = series.arrays()
    columns = [arrays[k].tolist() for k in _SERIES_COLUMNS]
    row = _row_format(len(columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_SERIES_COLUMNS) + "\r\n")
        fh.write("".join([row % values for values in zip(*columns)]))


def write_snapshots_csv(path: str, grid: Grid, snapshots: list):
    # x is formatted once per grid (Grid.x_text), and t once per snapshot
    # into the row format's literal text ("%.17g" writes no "%")
    x = grid.x_text
    with open(path, "w", newline="") as fh:
        fh.write("t,x,u,m\r\n")
        for t, u, m in snapshots:
            row = "%.17g" % t + ",%s,%.17g,%.17g\r\n"
            fh.write("".join([row % values for values in zip(x, u.tolist(), m.tolist())]))
