"""Periodic pseudospectral method-of-lines solver for
m_t = -f(u,ux)*m - (g(u,ux)*m)_x with u recovered from m by Helmholtz
inversion u_hat = m_hat/(1+k^2).

The evolved variable is the spectrum m_hat = rfft(m) (the inversion is
smoothing and unconditionally stable); time stepping is classical RK4 at
fixed step.  Each RK stage makes two stacked FFT calls: one irfft of
m_hat times the cached lift [1/(1+k^2), ik/(1+k^2), 1] gives u, u_x and
m on the grid, and one rfft of [f*m, g*m] gives the product spectra,
which are dealiased with the 2/3 rule: 8 FFT calls per step.  Every
transform calls the pocketfft gufuncs that np.fft.rfft and irfft
dispatch to, with the arguments they pass (_rfft, _irfft): the same bits
without their per-call checks.  f and g are one expr.Program per
equation, the evaluator the verdicts use; a Stepper binds it, with
everything else a stage reads, into one stage rate when it is built
(Program.bind), and its public methods hold np.errstate once per call,
not once per stage.  A step runs in buffers the Stepper allocates once
(products, spectra, the nodal values of stages 2-4, the stage rates
k1-k4 and their sum), by the same floating-point operations in the same
order as a step that allocates every array, so its results are the same
to the bit; nothing a Stepper returns shares those buffers.  A stage
tests its products for non-finite values through mode 0 of their
spectra, the sum of each row.  The nodal state after a step is stage 1
of the next.  Wave breaking is detected, not resolved: the run stops
when sup|u_x| crosses the configured threshold.  Equations whose f or g
has a singular locus (a pole or branch point, expr.singular_loci) get a
floor on the value of every locus on the grid, read from the same
program pass.

The series and snapshot CSVs (and the twave CSV of the command line) are
written by one vectorized writer (_fields, _csv_text): its bytes equal
Python's "%.17g" % v, value by value.  It forms the 17 digits of a whole
column by an error-free product with 10^p, and a value the product cannot
be shown exact for is formatted by "%.17g" itself.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, reduce

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

# each initial-data kind and the parameters initial_data reads for it
_INITIAL_PARAMS = {
    "gaussian": ("amplitude", "center", "width"),
    "cosine_offset": ("offset", "amplitude", "mode"),
    "mollified_peakon": ("amplitude", "center", "mollify_width_dx"),
    "solitary_wave": ("b", "c", "center"),
}


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

    # the cached arrays are read-only: every caller shares them

    @cached_property
    def x(self) -> np.ndarray:
        return _frozen(np.arange(self.n) * self.dx)

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


@cache
def _pocketfft():
    """The pocketfft gufuncs of numpy.fft, imported on the first transform.

    np.fft.rfft(a) and irfft(a, n) check their arguments and then call
    rfft_n_even(a, 1, out=) (every grid has an even n) and irfft(a, 1/n,
    out=); called directly they give the same bits without those checks,
    about 5 us a call.  A process that never transforms (classify) never
    loads numpy.fft.
    """
    from numpy.fft import _pocketfft_umath
    return _pocketfft_umath


def _rfft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.rfft(a) of float rows of even length, written into out if given."""
    if out is None:
        *rows, n = np.shape(a)
        out = np.empty((*rows, n // 2 + 1), dtype=complex)
    return _pocketfft().rfft_n_even(a, 1, out=out)


def _irfft(a: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.irfft(a, n=n) of complex rows, written into out if given."""
    if out is None:
        out = np.empty((*np.shape(a)[:-1], n))
    return _pocketfft().irfft(a, 1 / n, out=out)


def helmholtz_u(grid: Grid, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u and u_x from m via u_hat = m_hat/(1+k^2) and spectral derivative."""
    u, ux = _irfft(grid.lift[:2] * _rfft(m), grid.n)
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
        # an infinite step or time would overflow run's step count
        if self.series_dt is not None and not 0 < self.series_dt < math.inf:
            raise ValueError(f"series_dt must be a positive finite number, got {self.series_dt!r}")
        if any(not 0 <= t < math.inf for t in self.snapshot_times):
            raise ValueError("snapshot times must be non-negative finite numbers")
        kind = self.initial.get("kind")
        if kind not in _INITIAL_PARAMS:
            raise ValueError(f"unknown initial-data kind {kind!r}")
        p = self.initial.get("params", {})
        if not isinstance(p, dict):
            raise ValueError("initial-data params must be an object")
        # each parameter converted as initial_data converts it; a name the
        # kind does not read would be ignored without a word, and b and c
        # of a solitary wave are checked below
        names = _INITIAL_PARAMS[kind]
        for key, value in p.items():
            if key not in names:
                raise ValueError(f"unknown {kind} parameter {key!r}; it takes {', '.join(names)}")
            if key == "mode":
                try:
                    operator.index(value)
                except TypeError:
                    raise ValueError(f"initial-data parameter mode must be an integer, got {value!r}") from None
            elif key not in ("b", "c"):
                try:
                    finite = math.isfinite(float(value))
                except (TypeError, ValueError):
                    finite = False
                if not finite:
                    raise ValueError(f"initial-data parameter {key} must be a finite number, got {value!r}")
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
        if not isinstance(out, dict):
            raise ValueError(f"output must be a JSON object, got {out!r}")
        for key in ("series_path", "snapshot_path"):
            if not isinstance(out.get(key, ""), str):
                raise ValueError(f"{key} must be a string, got {out[key]!r}")
        n = cfg["N"]
        # a fractional or quoted N would silently run on another grid
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"N must be an integer, got {n!r}")
        # only the keys the document holds: SimConfig owns the defaults
        options = {key: _number(key, cfg[key])
                   for key in ("energy_mu", "energy_nu", "blowup_threshold", "min_u_floor") if key in cfg}
        if cfg.get("series_dt") is not None:  # null: no series times
            options["series_dt"] = _number("series_dt", cfg["series_dt"])
        if "dealias" in cfg:
            options["dealias"] = cfg["dealias"]
        if "snapshot_times" in out:
            options["snapshot_times"] = tuple(_number("snapshot_times", t) for t in out["snapshot_times"])
        return SimConfig(
            length=_number("L", cfg["L"]),
            n=n,
            dt=_number("dt", cfg["dt"]),
            t_final=_number("t_final", cfg["t_final"]),
            equation=eq,
            initial=dict(cfg["initial"]),
            **options,
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
        u0 = _irfft(_rfft(u0) * np.exp(-0.5 * (grid.k * sigma) ** 2), grid.n)
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
    uh = _rfft(u0)
    return _irfft((1.0 + grid.k**2) * uh, grid.n)


# ---------------------------------------------------------------------------
# right-hand side and stepping


class Stepper:
    """Classical RK4 on the spectrum m_hat for one grid and equation.

    guard_floor > 0 arms the guard on the singular loci of f and g
    (EquationSpec.loci), read from the pass over f and g.  Stage rates
    raise SingularHit when a locus's value on the grid comes within
    guard_floor of the locus (expr.Locus.distance), naming the locus, or
    when f or g is non-finite on the grid.

    The stage rate is bound once, here: one closure over the equation's
    Program bound to (u, u_x) with x read once (Program.bind), the guard's
    loci and floor, the product block (2, N) and its spectra (2, N/2+1),
    the dealias weights and the _rfft handle.  rates, step and check_cfl
    call it, or its bound f and g, and none enters more than one
    np.errstate per call.  A step runs in buffers allocated here, once:
    those of the rate, the lifted spectrum (3, N/2+1) and the nodal block
    (3, N) of stages 2-4, the stage rates k1-k4, the stage spectrum and
    the accumulator of the rate sum.  rates(..., out=) writes the rate
    into out; without out it returns a fresh array.  Nothing that rates,
    state or step returns shares a buffer of the stepper.
    """

    def __init__(self, grid: Grid, eq: EquationSpec, dealias: bool = True,
                 guard_floor: float = 0.0):
        self.grid = grid
        self.program = eq.program
        self.loci = eq.loci
        self.guard_floor = guard_floor
        mask = grid.dealias_mask if dealias else np.ones_like(grid.k)
        # m_hat_t = weights[0]*rfft(f*m) + weights[1]*rfft(g*m)
        self.weights = np.stack([-mask, -mask * grid.ik])
        modes = grid.n // 2 + 1
        self._lifted = np.empty((3, modes), dtype=complex)
        self._nodes = np.empty((3, grid.n))
        self._k = np.empty((4, modes), dtype=complex)
        self._stage = np.empty(modes, dtype=complex)
        self._sum = np.empty(modes, dtype=complex)
        # f, g and each locus of the equation, summed, at (u, u_x)
        self._values = self.program.bind(("u", "ux"), {"x": grid.x})
        self._rate = self._bind_rate()

    def _bind_rate(self):
        """The stage rate (u, ux, m, out) -> m_hat_t, without np.errstate."""
        values, weights, x, floor = self._values, self.weights, self.grid.x, self.guard_floor
        loci = self.loci if floor > 0.0 else ()
        products = np.empty((2, self.grid.n))
        spectra = np.empty((2, self.grid.n // 2 + 1), dtype=complex)
        (f_product, g_product), (f_spectrum, g_spectrum) = products, spectra
        rfft, multiply, add, isfinite = _rfft, np.multiply, np.add, math.isfinite

        def rate(u, ux, m, out):
            fv, gv, *on_loci = values(u, ux)
            for locus, value in zip(loci, on_loci):
                distance = locus.distance(value)
                if distance.min() < floor:
                    raise SingularHit(f"{locus} fell below the floor {floor:g}",
                                      float(x[distance.argmin()]))
            multiply(fv, m, out=f_product)
            multiply(gv, m, out=g_product)
            rfft(products, spectra)
            # mode 0 of a row is its sum (real), non-finite whenever one of
            # its products is; a non-finite f or g makes its product
            # non-finite, and a finite product that overflows is not a hit
            if not isfinite(f_spectrum[0].real + g_spectrum[0].real):
                bad = np.flatnonzero(~(np.isfinite(fv) & np.isfinite(gv)))
                if bad.size:
                    raise SingularHit("f or g is non-finite on the grid", float(x[bad[0]]))
            multiply(weights, spectra, out=spectra)
            return add(f_spectrum, g_spectrum, out=out)
        return rate

    def _nodal(self, mh: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return _irfft(np.multiply(self.grid.lift, mh, out=self._lifted), self.grid.n, out)

    def state(self, mh: np.ndarray, t: float) -> GridState:
        """Nodal u, u_x and m of the spectrum mh."""
        u, ux, m = self._nodal(mh)
        return GridState(t, m, u, ux)

    def rates(self, u: np.ndarray, ux: np.ndarray, m: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        """m_hat_t at the nodal state (u, u_x, m), written into out if given."""
        with np.errstate(all="ignore"):
            return self._rate(u, ux, m, out)

    def step(self, mh: np.ndarray, state: GridState, dt: float) -> np.ndarray:
        """m_hat one step on; `state` is the nodal state of mh (stage 1)."""
        rate, k, stage, total = self._rate, self._k, self._stage, self._sum
        with np.errstate(all="ignore"):
            rate(state.u, state.ux, state.m, k[0])
            # stage i is mh + c*dt*k[i-1], the operations of mh + c * dt * k
            for i, c in ((1, 0.5), (2, 0.5), (3, 1.0)):
                np.multiply(k[i - 1], c * dt, out=stage)
                np.add(mh, stage, out=stage)
                rate(*self._nodal(stage, out=self._nodes), k[i])
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
        with np.errstate(all="ignore"):
            gmax = float(np.max(np.abs(self._values(state.u, state.ux)[1])))
        if dt * gmax * self.grid.n / self.grid.length > 1.0:
            warnings.warn("CFL sanity exceeded: dt*max|g|*N/L > 1", RuntimeWarning, stacklevel=3)


def rhs(grid: Grid, state: GridState, eq: EquationSpec, dealias: bool = True) -> np.ndarray:
    """Nodal m_t = -f*m - D_x(g*m), spectral D_x, dealiased products.

    u and u_x are taken from the state, as GridState.from_m makes them.
    """
    return _irfft(Stepper(grid, eq, dealias).rates(state.u, state.ux, state.m), grid.n)


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
    mh = _rfft(m0)
    state = stepper.state(mh, 0.0)

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
    # one errstate for the run: f and g at a pole, the nodal state of a
    # non-finite spectrum and its series give inf or NaN, which the loop
    # reports as a status; step and check_cfl hold their own as well
    with np.errstate(all="ignore"):
        stepper.check_cfl(state, config.dt)
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
# csv output: every number as "%.17g" % v writes it (17 significant digits
# round-trip every double), with the bytes csv.writer writes: numbers need
# no quoting, and rows end in \r\n.  _fields formats a column at a time
# into NUL-padded fields, _csv_text joins them into rows and drops the pad.


_VECTOR_MIN = 64  # fewer values are formatted one by one: below it the vector path costs more
_TIE_MARGIN = 1e-6  # far above the error of |x|*10^p where 10^p is not a double


@dataclass(frozen=True)
class _Tables:
    """What _fields reads, built on the first write (_tables), not at import.

    A field is 48 bytes: six little-endian uint64 words, NUL the pad byte.
    - Word 0: the sign, "0.000" (prefix: fixed notation below 1) and the
      first digit with its "." slot (lead).
    - Words 1-4: 4 digits each, each followed by a "." slot (spread).
    - Word 5: "e-ddd" (suffix), and in its last bytes the separator that
      _csv_text writes.
    masks keeps the digits shown and the one "." that is.  The tables read
    by p = 16 - k (k the decimal exponent) hold 10^p = hi + lo, hi rounded
    to a double and lo the rest rounded (both from exact integers), and
    hi's halves hi_high + hi_low (_split).
    """

    spread: np.ndarray  # [w]: the 4-digit word w, each digit followed by "."
    lead: np.ndarray  # [d]: word 0 with first digit d, and "." after it
    last: np.ndarray  # [j, w]: digits through the last nonzero one of w as word j; 1 for w = 0
    masks: np.ndarray  # [j, 18 keep + dot]: what word j shows of the first keep digits and the "."
    hi: np.ndarray
    hi_high: np.ndarray
    hi_low: np.ndarray
    lo: np.ndarray
    prefix: np.ndarray
    suffix: np.ndarray
    min_keep: np.ndarray  # the digits before the ".", kept when they are 0
    dot: np.ndarray  # 1 + the digit the "." follows, 0 for none


@cache
def _tables() -> _Tables:
    words = np.frombuffer("".join([f"{w:04d}" for w in range(10_000)]).encode(), np.uint8).reshape(-1, 4)
    spread = np.full((10_000, 8), ord("."), np.uint8)
    spread[:, ::2] = words
    lead = np.zeros((10, 8), np.uint8)
    lead[:, 6], lead[:, 7] = np.arange(ord("0"), ord("0") + 10), ord(".")
    significant = 4 - np.argmax(words[:, ::-1] != ord("0"), axis=1)
    significant[0] = 0
    start = np.arange(1, 17, 4)[:, None]  # the first digit of each word
    last = np.where(significant > 0, start + significant, 1)
    # the first digit is byte 6 of word 0, always shown; digit i >= 1 is
    # byte 2((i-1) % 4) of word 1 + (i-1)//4; a "." is one byte on
    byte = [(0, 6)] + [(1 + (i - 1) // 4, 2 * ((i - 1) % 4)) for i in range(1, 17)]
    masks = np.zeros((5, 18, 18, 8), np.uint8)  # [word, keep, 1 + dot, byte]
    masks[0, :, :, :7] = 0xFF
    for keep in range(1, 18):
        for word, at in byte[1:keep]:
            masks[word, keep, :, at] = 0xFF
        for dot, (word, at) in enumerate(byte[: keep - 1]):
            masks[word, keep, dot + 1, at + 1] = 0xFF
    hi = np.array([float(10**p) for p in range(299)])
    k = 16 - np.arange(299)
    prefix = [b"\0" + b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in k.tolist()]
    suffix = [b"e-%02d" % -e if e < -4 else b"" for e in k.tolist()]
    return _Tables(
        spread.view("<u8").ravel(),
        lead.view("<u8").ravel(),
        last.astype(np.int8),
        masks.reshape(5, 18 * 18, 8).view("<u8")[..., 0],
        hi,
        *_split(hi),
        np.array([float(10**p - int(h)) for p, h in enumerate(hi.tolist())]),
        np.frombuffer(b"".join([t.ljust(8, b"\0") for t in prefix]), "<u8"),
        np.frombuffer(b"".join([t.ljust(8, b"\0") for t in suffix]), "<u8"),
        np.maximum(k + 1, 0).astype(np.intp),
        np.where(k >= 0, k + 1, np.where(k < -4, 1, 0)),
    )


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into two 26-bit halves, a = high + low exactly."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _fields(values: np.ndarray) -> np.ndarray:
    """Each value as "%.17g" % v writes it: a NUL-padded (n, 6) uint64 block.

    For 1e-280 < |x| < 1e16, with k = floor(log10|x|) and p = 16 - k, the
    17 digits are |x|*10^p rounded half to even to an integer.  The product
    is error-free (Dekker) against 10^p = hi + lo, so it is exact where 10^p
    is a double (p <= 22) and within 1e-14 elsewhere.  The per-value
    "%.17g" (_fields_per_value) formats every other value: 0, NaN, the
    infinities, |x| outside that range, a k that log10 misplaced (the
    digits fall outside [10^16, 10^17)), and, where p > 22, a product within
    _TIE_MARGIN of a rounding tie or of 10^16.  It formats all of fewer
    than _VECTOR_MIN values.
    """
    values = np.ravel(values).astype(float, copy=False)
    if values.size < _VECTOR_MIN:
        return _fields_per_value(values)
    tables = _tables()
    a = np.abs(values)
    in_range = (a > 1e-280) & (a < 1e16)
    a = np.where(in_range, a, 1.0)
    p = 16 - np.floor(np.log10(a)).astype(np.intp)
    # a*hi = prod + err exactly (Dekker's product), so the digits are
    # prod + round(err + a*lo), prod an even integer (it is >= 2^53)
    hi_high, hi_low = tables.hi_high[p], tables.hi_low[p]
    prod = a * tables.hi[p]
    a_high, a_low = _split(a)
    err = ((a_high * hi_high - prod) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    rest = err + a * tables.lo[p]
    ones = np.rint(rest)
    digits = prod.astype(np.int64) + ones.astype(np.int64)
    # |x|*10^p - 10^16, its sign exact where p <= 22: below 0, log10 gave a
    # k one too large
    excess = prod - 1e16 + rest
    ok = in_range & (excess >= 0.0) & (digits < 10**17)
    inexact = p > 22
    if inexact.any():
        near = (excess < _TIE_MARGIN) | (np.abs(np.abs(rest - ones) - 0.5) < _TIE_MARGIN)
        ok &= ~(inexact & near)
    fields = _layout(values < 0, p, np.where(ok, digits, 10**16), tables)
    if not ok.all():
        fields[~ok] = _fields_per_value(values[~ok])
    return fields


def _fields_per_value(values: np.ndarray) -> np.ndarray:
    """_fields of each value by the per-value "%.17g"."""
    text = b"".join([("%.17g" % v).encode().ljust(48, b"\0") for v in values.tolist()])
    return np.frombuffer(text, "<u8").reshape(-1, 6).copy()


def _layout(negative: np.ndarray, p: np.ndarray, digits: np.ndarray, tables: _Tables) -> np.ndarray:
    """%g's text of sign * digits * 10^-p, digits in [10^16, 10^17).

    Fixed notation for -4 <= k < 17 (k = 16 - p), else d.ddde-XX; no
    trailing zeros, and no "." without a digit after it.
    """
    lead = digits // 10**16
    rest = digits - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    words = [upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4]
    # digits shown: through the last nonzero one, and all before the "."
    last = reduce(np.maximum, [table[w] for table, w in zip(tables.last, words)])
    shown = 18 * np.maximum(last, tables.min_keep[p]) + tables.dot[p]
    fields = np.empty((digits.size, 6), "<u8")
    fields[:, 0] = (tables.prefix[p] | tables.lead[lead] | negative * np.uint64(ord("-"))) & tables.masks[0][shown]
    for j, w in enumerate(words, 1):
        fields[:, j] = tables.spread[w] & tables.masks[j][shown]
    fields[:, 5] = tables.suffix[p]
    return fields


def _csv_text(columns, newline: str) -> str:
    """Rows of the columns' fields (_fields), joined by "," and ended by newline.

    A column holds one field a row, or one field for every row.  Each
    separator is written into the last bytes of its field, which _fields
    leaves NUL; then the pad bytes are dropped.
    """
    separators = [b","] * (len(columns) - 1) + [newline.encode()]
    rows = np.empty((max(len(c) for c in columns), len(columns), 6), "<u8")
    for j, fields in enumerate(columns):
        rows[:, j] = fields
    rows[:, :, 5] |= np.array([int.from_bytes(s.rjust(8, b"\0"), "little") for s in separators], "<u8")
    return rows.tobytes().translate(None, b"\0").decode()


def _table_text(columns: list, newline: str) -> str:
    """_csv_text of float columns of one length, formatted in one _fields call."""
    return _csv_text(_fields(np.stack(columns)).reshape(len(columns), -1, 6), newline)


def write_series_csv(path: str, series: ConservedSeries):
    arrays = series.arrays()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_SERIES_COLUMNS) + "\r\n")
        fh.write(_table_text([arrays[k] for k in _SERIES_COLUMNS], "\r\n"))


@lru_cache(maxsize=8)
def _x_fields(grid: Grid) -> np.ndarray:
    return _frozen(_fields(grid.x))


def write_snapshots_csv(path: str, grid: Grid, snapshots: list):
    # x is formatted once per grid, and each snapshot on its own, so the
    # blocks stay small
    x = _x_fields(grid)
    with open(path, "w", newline="") as fh:
        fh.write("t,x,u,m\r\n")
        for t, u, m in snapshots:
            u, m, t = np.split(_fields(np.concatenate([u, m, [t]])), [grid.n, 2 * grid.n])
            fh.write(_csv_text([t, x, u, m], "\r\n"))
