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

The determining conditions are split by m-monomials.  A (H1), B
(momentum) and C (the m^2 part of the gradient energy) are linear in f
and g, which depend on (u, ux) only, so each is a polynomial in
(m, mx, mxx) whose coefficients depend on (u, ux) only, and it vanishes
iff every coefficient does.  euler_u builds each condition once per
process over placeholder partials of f and g (expr.Partial), and the
normal form splits it into 2 (A, B) or 10 (C) templates; their
polynomial weights are compiled once per process too.  Per equation
each coefficient is a sum of template weight(u, ux) * partial of f or g,
and no expression is built for it: one truncated-Taylor pass over f and
g (expr.Program.taylor) gives the 15 partials at the sample points, and
the structurally zero ones are left out.

All verdicts are randomized-numeric: a coefficient is declared zero only
when every sampled (u, ux) point agrees (expr.vote), unless it is an
exact zero: every partial in it is structurally zero, or f and g are
polynomial there and the sum of its weights' normal forms times the
partials' normal forms (derived from those of f and g as dicts) is
empty.  The coefficients of an equation share one sample.  A failed
verdict names the m-monomial whose coefficient failed.  A
gradient-energy candidate (mu, nu) is judged by the same rule without
building its residual: exactly from the coefficients' normal forms, else
at the shared points.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from . import expr as ex
from . import poly
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

    @property
    def loci(self) -> list:
        """The singular loci of f and g (expr.singular_loci), read off the walk that compiles program."""
        return self.program.loci

    @cached_property
    def program(self) -> ex.Program:
        """f, g and then each of loci as one Program, for the split and the solver."""
        return ex.Program([self.bound_f, self.bound_g], with_loci=True)

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
# determining conditions, split by m-monomials


def _monomial_source(mono: tuple) -> str:
    """An m-monomial, a sorted tuple of (name, power), as source: "m*mx", "m^2", "1"."""
    return ex.to_source(mul(*(pow_(var(name), k) for name, k in mono)))


@cache
def _templates() -> dict:
    """The conditions A, B and C over placeholder partials of f and g, split by m-monomials.

    A = E_u((u*f - ux*g)*m) (H1), B = E_u(f*m) (momentum) and
    C = E_u((f + D_x(g)/2)*m^2) are built once per process by euler_u over
    ex.Partial placeholders F_ij = d^i/du^i d^j/dux^j f and G_ij.  Each is
    a polynomial in every symbol and linear in the placeholders, so its
    normal form splits it exactly: {condition: {m-monomial source:
    ((placeholder, weight in u and ux), ...)}}, summing weight * placeholder.
    """
    f, g = ex.Partial("f"), ex.Partial("g")
    conds = {
        "A": euler_u(mul(sub(mul(_U, f), mul(_UX, g)), _M)),
        "B": euler_u(mul(f, _M)),
        "C": euler_u(mul(add(f, mul(0.5, d_x(g))), pow_(_M, 2))),
    }
    # the symbols of the normal forms: u, ux and the partials up to order 3
    partials = [ex.Partial(of, i, n - i) for of in "fg" for n in range(4) for i in range(n + 1)]
    leaves = {"u": _U, "ux": _UX, **{p.name: p for p in partials}}
    out = {}
    for name, cond in conds.items():
        split: dict = {}
        for mono, c in ex.poly_normal_form(cond).items():
            m_part = tuple(p for p in mono if p[0][0] == "m")
            (placeholder,) = [leaves[s] for s, _ in mono if s[0] in "fg"]
            rest = [pow_(leaves[s], k) for s, k in mono if s[0] == "u"]
            weight = mul(const(float(poly._rational(c))), *rest)
            split.setdefault(_monomial_source(m_part), {}).setdefault(placeholder, []).append(weight)
        out[name] = {mono: tuple((p, add(*ts)) for p, ts in weights.items()) for mono, weights in split.items()}
    return out


@cache
def _weights() -> tuple:
    """The template weights, compiled once per process.

    (program, forms, layout): one Program over the distinct weights, their
    exact normal forms, and {(condition, m-monomial): ((weight index,
    (function, i, j)), ...)} in template order.
    """
    weights, index, layout = [], {}, {}
    for name, split in _templates().items():
        for mono, pairs in split.items():
            for _, w in pairs:
                if w not in index:
                    index[w] = len(weights)
                    weights.append(w)
            layout[name, mono] = tuple((index[w], (p.of, p.i, p.j)) for p, w in pairs)
    return ex.Program(weights), ex.poly_normal_forms(weights), layout


def _partial_forms(forms: list, supports: list) -> dict:
    """{(i, j): exact normal form of d^i/du^i d^j/dux^j} of a sum of terms, for the nonzero partials.

    forms and supports are the terms' normal forms (None where not
    polynomial) and their Taylor supports (expr.Program.supports).

    A partial is structurally zero when no term's Taylor support holds it,
    and is left out.  It is exact (else None) when every term that holds
    it is polynomial; the derivatives are taken of the dicts.
    """
    total = {}
    for nf in forms:
        if nf is not None:
            total = poly._padd(total, nf)
    derived = {(0, 0): total}

    def form(i: int, j: int) -> dict:
        if (i, j) not in derived:
            derived[i, j] = poly._pdiff(form(i - 1, j), "u") if i else poly._pdiff(form(0, j - 1), "ux")
        return derived[i, j]

    out = {}
    for k, ij in enumerate(ex.JET):
        held = [nf for nf, support in zip(forms, supports) if k in support]
        if held:
            out[ij] = form(*ij) if all(nf is not None for nf in held) else None
    return out


@dataclass(frozen=True)
class _SplitConditions:
    """The m-monomial coefficients of A, B and C, zero-tested on one shared sample.

    forms maps (condition, m-monomial) to the coefficient's exact normal
    form: {} for an exact zero, None when it is not polynomial.  The
    coefficients that are not exact zeros are sampled together, once, and
    each votes on its own row of samples.values and samples.scales (its
    largest |weight * partial|).
    An equation's split comes from _split_conditions; tested splits
    coefficient expressions given whole, as the synthetic conditions of
    the tests.
    """

    forms: dict
    samples: ex.Samples | None
    rows: dict  # (condition, m-monomial) -> row of samples, for the sampled ones
    verdicts: dict

    @staticmethod
    def voted(forms: dict, sample, policy: SamplingPolicy) -> "_SplitConditions":
        """Zero tests of the coefficients forms: exact where {}, else sample(pending keys) votes."""
        pending = [k for k, nf in forms.items() if nf != {}]
        samples = sample(pending) if pending else None
        verdicts = {k: ZeroVerdict("zero", 0.0, None, exact=True) for k in forms}
        for row, k in enumerate(pending):
            v = ex.vote(samples, samples.values[row], samples.scales[row], policy.rel_tol)
            verdicts[k] = _named(v, k[1])
        return _SplitConditions(forms, samples, {k: row for row, k in enumerate(pending)}, verdicts)

    @staticmethod
    def tested(coeffs: dict, policy: SamplingPolicy) -> "_SplitConditions":
        """The split of coefficient expressions {(condition, m-monomial): expression in (u, ux)}."""
        forms = dict(zip(coeffs, ex.poly_normal_forms(list(coeffs.values()))))
        return _SplitConditions.voted(forms, lambda pending: ex.sample([coeffs[k] for k in pending], policy), policy)

    def monomials(self, name: str) -> list:
        return [mono for cond, mono in self.forms if cond == name]

    def verdict(self, name: str, monomials=None) -> ZeroVerdict:
        """Zero test of a condition: all of its coefficients (or those of monomials)."""
        if monomials is None:
            monomials = self.monomials(name)
        return _all_zero([self.verdicts[name, mono] for mono in monomials])

    def at_points(self, keys: list) -> tuple[list, list]:
        """Values and scales of the coefficients keys at the shared points.

        A coefficient that is not sampled (an exact zero, or absent from
        forms) reads 0 with scale 1.
        """
        n = self.samples.values.shape[1]
        rows = [self.rows.get(k) for k in keys]
        values = [np.zeros(n) if r is None else self.samples.values[r] for r in rows]
        scales = [np.ones(n) if r is None else self.samples.scales[r] for r in rows]
        return values, scales


def _named(v: ZeroVerdict, monomial: str) -> ZeroVerdict:
    """v with the failing coefficient's m-monomial in its witness."""
    if v.witness is None:
        return v
    return ZeroVerdict(v.status, v.residual_max, {**v.witness, "monomial": monomial}, v.exact)


def _all_zero(verdicts: list) -> ZeroVerdict:
    """The verdict that every one of verdicts is zero.

    One nonzero part makes the whole nonzero, else one indeterminate part
    makes it indeterminate; the worst such part gives residual and witness.
    """
    for status in ("nonzero", "indeterminate"):
        failed = [v for v in verdicts if v.status == status]
        if failed:
            return max(failed, key=lambda v: v.residual_max)
    return ZeroVerdict("zero", max((v.residual_max for v in verdicts), default=0.0), None,
                       exact=all(v.exact for v in verdicts))


def _split_conditions(eq: EquationSpec, policy: SamplingPolicy) -> _SplitConditions:
    """The split conditions of eq, from one truncated-Taylor pass over f and g per sampled block.

    A coefficient is the sum of weight * partial over the partials of its
    template that are not structurally zero; with none left it is an
    exact zero.  Where every partial in it is polynomial its normal form
    is the sum of the weights' forms times the partials' forms, derived
    from the normal forms of f's and g's terms.  The partials' values at
    the sampled points are the Taylor coefficients times i! j!; row 0 of
    the same pass gives the values of the singular loci of f and g.
    """
    weights, weight_forms, layout = _weights()
    fg = eq.program
    terms = [e.terms if isinstance(e, ex.Add) else (e,) for e in (eq.bound_f, eq.bound_g)]
    term_forms = iter(ex.poly_normal_forms([t for ts in terms for t in ts]))
    partials = {}  # (function, i, j) -> exact form or None, for the nonzero partials
    for of, ts, supports in zip("fg", terms, fg.supports):
        for (i, j), nf in _partial_forms([next(term_forms) for _ in ts], supports).items():
            partials[of, i, j] = nf
    forms, live = {}, {}
    for key, pairs in layout.items():
        live[key] = [(w, p) for w, p in pairs if p in partials]
        if not live[key]:
            forms[key] = {}
        elif all(partials[p] is not None for _, p in live[key]):
            total = {}
            for w, p in live[key]:
                total = poly._padd(total, poly._pmul(weight_forms[w], partials[p]))
            forms[key] = total
        else:
            forms[key] = None

    def sample(pending: list) -> ex.Samples:
        pairs = [pair for k in pending for pair in live[k]]
        w_rows = [w for w, _ in pairs]
        jet_of = np.array(["fg".index(of) for _, (of, _, _) in pairs])
        jet_row = np.array([ex.JET.index((i, j)) for _, (_, i, j) in pairs])
        factorial = np.array([math.factorial(i) * math.factorial(j) for _, (_, i, j) in pairs], dtype=float)
        bounds = np.cumsum([len(live[k]) for k in pending])[:-1]

        def block(env: dict, count: int) -> tuple:
            f_jet, g_jet, *loci = fg.taylor(env)
            w = np.empty((len(weight_forms), count))
            for row, ts in zip(w, weights(env)):
                row[:] = functools.reduce(operator.add, ts)
            values = w[w_rows] * (np.array([f_jet, g_jet])[jet_of, jet_row] * factorial[:, None])
            return np.split(values, bounds), [locus.distance(jet[0]) for locus, jet in zip(eq.loci, loci)]

        return ex.sample(block, policy, ("u", "ux"))

    return _SplitConditions.voted(forms, sample, policy)


def check_momentum(eq: EquationSpec, policy: SamplingPolicy | None = None) -> Verdict:
    """Momentum density T = m (equivalently T = u) is conserved iff E_u(f*m) = 0."""
    return Verdict.from_zero(_split_conditions(eq, policy or SamplingPolicy()).verdict("B"))


def check_h1(eq: EquationSpec, policy: SamplingPolicy | None = None) -> Verdict:
    """H1 density T = ux^2 + u^2 is conserved iff E_u((u*f - ux*g)*m) = 0."""
    return Verdict.from_zero(_split_conditions(eq, policy or SamplingPolicy()).verdict("A"))


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

    The residual (mu-2)*A + nu*B + C vanishes iff each of its m-monomial
    coefficients does.  C alone has monomials other than 1 and m; those
    coefficients must vanish on their own, else the set is empty.  The
    coefficients of 1 and m are affine in (mu, nu), and their samples
    stack into a 2-column linear system whose rank decides the set.
    Singular values below 1e-7 of the largest are treated as zero; any
    value within a factor 10 of that threshold makes the rank decision
    ambiguous and the verdict indeterminate.  Each candidate (mu, nu) is
    then zero-tested as a residual (see _candidate_verdict); a line is
    tested at two points, the minimum-norm solution and one unit step
    along it, and both must hold, combined by _all_zero as the rows of a
    condition are (a nonzero point outranks an indeterminate one).  One rule
    turns each zero test into the set: the plane, point or line it tests
    where it is zero, empty where it is nonzero, indeterminate otherwise.
    """
    policy = policy or SamplingPolicy()
    return _solve_grad_energy(_split_conditions(eq, policy), policy)


# the m-monomials of the gradient-energy residual that A and B share with C
_AFFINE_ROWS = ("1", "m")


def _candidate_verdict(split: _SplitConditions, mu: float, nu: float, rel_tol: float) -> ZeroVerdict:
    """Zero test of the 1 and m rows of the residual (mu-2)*A + nu*B + C.

    When the coefficients of those rows are all polynomial, their normal
    forms are combined exactly with the weights mu-2, nu and 1 (floats,
    so dyadic), and two empty rows are an exact zero.  Otherwise each row's
    values (mu-2)*a + nu*b + c vote at the shared sample points, each
    against the scale max(1, |mu-2|*s_A, |nu|*s_B, s_C).  No residual is
    built, normalized, compiled or sampled anew.
    """
    weights = (mu - 2.0, nu, 1.0)
    rows = [[(name, row) for name in "ABC"] for row in _AFFINE_ROWS]
    forms = [[split.forms.get(k, {}) for k in keys] for keys in rows]
    if all(nf is not None for row_forms in forms for nf in row_forms):
        w_forms = [{(): poly._dyadic(w)} if w else {} for w in weights]
        if not any(functools.reduce(poly._padd, map(poly._pmul, row_forms, w_forms)) for row_forms in forms):
            return ZeroVerdict("zero", 0.0, None, exact=True)
    verdicts = []
    for row, keys in zip(_AFFINE_ROWS, rows):
        (a, b, c), (sa, sb, sc) = split.at_points(keys)
        values = weights[0] * a + weights[1] * b + c
        scales = np.maximum(np.maximum(abs(weights[0]) * sa, abs(weights[1]) * sb), sc)  # sc >= 1
        verdicts.append(_named(ex.vote(split.samples, values, scales, rel_tol), row))
    return _all_zero(verdicts)


def _judged(v: ZeroVerdict, kind: str, mu=None, nu=None, direction=None) -> GradEnergySolutions:
    """The solution set kind where the zero test v is zero, empty where it is nonzero, else indeterminate."""
    if v.status == "zero":
        return GradEnergySolutions(kind, mu, nu, direction, v.residual_max)
    return GradEnergySolutions("empty" if v.status == "nonzero" else "indeterminate", residual_max=v.residual_max)


def _solve_grad_energy(split: _SplitConditions, policy: SamplingPolicy) -> GradEnergySolutions:
    """check_grad_energy on the split conditions of an equation."""
    vrest = split.verdict("C", [mono for mono in split.monomials("C") if mono not in _AFFINE_ROWS])
    if vrest.status != "zero":  # the rows of C alone hold for no (mu, nu)
        return _judged(vrest, "plane")
    if split.samples is None:  # every coefficient is an exact zero
        return _judged(split.verdict("C"), "plane")

    blocks, rhs = [], []
    for row in _AFFINE_ROWS:
        (a, b, c), scales = split.at_points([(name, row) for name in "ABC"])
        top = np.maximum(np.maximum(scales[0], scales[1]), scales[2])
        blocks.append(np.column_stack([a / top, b / top]))
        rhs.append(-c / top)
    mat, rhs = np.vstack(blocks), np.concatenate(rhs)
    svals = np.linalg.svd(mat, compute_uv=False)
    smax = svals[0]
    # column magnitudes are O(1) after scale normalization, so compare the
    # rank threshold against max(smax, 1)
    thresh = 1e-7 * max(smax, 1.0)
    if any(thresh / 10.0 < s < thresh * 10.0 for s in svals):
        return _judged(ZeroVerdict("indeterminate", float(smax)), "plane")
    rank = int(np.sum(svals > thresh))
    if rank == 0:
        return _judged(split.verdict("C"), "plane")

    # the minimum-norm solution: the point, or the line's particular solution
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    mu, nu = _snap(float(sol[0]) + 2.0), _snap(float(sol[1]))
    v = _candidate_verdict(split, mu, nu, policy.rel_tol)
    if rank == 2:
        return _judged(v, "point", mu, nu)
    _, _, vt = np.linalg.svd(mat)
    null = vt[1] / np.hypot(*vt[1])
    null = np.array([_snap(null[0]), _snap(null[1])])
    null = null / np.hypot(*null)
    v2 = _candidate_verdict(split, mu + null[0], nu + null[1], policy.rel_tol)
    # both points of the line must hold
    return _judged(_all_zero([v, v2]), "line", mu, nu, (float(null[0]), float(null[1])))


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
    plus, minus = ex.evaluate(w, {"u": np.array([u0, u0]), "ux": np.array([ux0, -ux0])})
    est = 0.5 * float(plus + minus) * (u0 * u0 - ux0 * ux0) / u0
    if not math.isfinite(est):
        return 0.0
    snapped = Fraction(est).limit_denominator(1000)
    if abs(float(snapped) - est) <= 1e-6 * max(1.0, abs(est)):
        return float(snapped)
    return est


def _coefficients(nf: dict, factor: dict, step: int) -> list[Fraction]:
    """[c_0, c_1, ...]: c_k is the coefficient of factor * u^(step*k) in the normal form nf.

    factor maps the symbols other than u to their powers ({} for none);
    the monomials of nf of another form are left out.
    """
    coeffs: dict[int, Fraction] = {}
    for mono, c in nf.items():
        powers = dict(mono)
        k, rest = divmod(powers.pop("u", 0), step)
        if not rest and powers == factor:
            coeffs[k] = poly._rational(c)
    return [coeffs.get(k, Fraction(0)) for k in range(max(coeffs, default=0) + 1)]


@dataclass(frozen=True)
class _Recognized:
    """q(x) of one argument x (u^2-ux^2 or u), as the sum of the terms c*x^r.

    terms holds the (c, r) pairs: (c_k, k) for k = 0, 1, ... of a
    polynomial, or one (c, r) of a single rational power.  expr() and
    antiderivative() build from the same list; the antiderivative
    integrates term by term, c*ln(x) for r = -1, and vanishes at x = 0
    otherwise.
    """

    arg: Expr
    terms: tuple

    @staticmethod
    def polynomial(arg: Expr, coeffs: list) -> "_Recognized":
        return _Recognized(arg, tuple((c, k) for k, c in enumerate(coeffs)))

    def expr(self) -> Expr:
        return add(*(mul(const(float(c)), pow_(self.arg, r)) for c, r in self.terms))

    def antiderivative(self) -> Expr:
        return add(*(mul(const(float(c)), fn("ln", self.arg)) if r == -1
                     else mul(const(float(c) / float(r + 1)), pow_(self.arg, r + 1)) for c, r in self.terms))


def _poly_in_y_exact(w: Expr) -> _Recognized | None:
    """q with w = ux * q(u^2-ux^2) for a polynomial q, exactly; else None."""
    nf = ex.poly_normal_form(w)
    if nf is None:
        return None
    # candidate q from w's ux*u^(2k) monomials, which are ux*q(u^2)
    rec = _Recognized.polynomial(_Y, _coefficients(nf, {"ux": 1}, 2))
    return rec if ex.poly_normal_form(sub(w, mul(_UX, rec.expr()))) == {} else None


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
        return exact

    # q = w/ux on the lines ux = 0.7 and ux = 1.1, at the same ten values of y
    ys = np.linspace(0.4, 2.2, 10)
    uxs = np.repeat([0.7, 1.1], len(ys))
    u0s = np.sqrt(np.tile(ys, 2) + uxs * uxs)
    q1, q2 = (ex.evaluate(w, {"u": u0s, "ux": uxs}) / uxs).reshape(2, -1)
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
            return _validated(w, _UX, _Recognized.polynomial(_Y, snapped))

    fit = _power_fit(ys, q1)
    if fit is None:
        return None
    return _validated(w, _UX, _Recognized(_Y, (fit,)))


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
    """G(u) = integral of g du for g(u) polynomial or a single power c*u^r."""
    nf = ex.poly_normal_form(g)
    if nf is not None:
        return _Recognized.polynomial(_U, _coefficients(nf, {}, 1)).antiderivative()
    us = np.linspace(0.5, 2.5, 9)
    fit = _power_fit(us, ex.evaluate(g, {"u": us}))
    if fit is None:
        return None
    rec = _validated(g, ex.ONE, _Recognized(_U, (fit,)))
    return None if rec is None else rec.antiderivative()


def flux_grad_energy(eq: EquationSpec, mu: float, nu: float) -> ConservedCurrent | None:
    """Gradient-energy current at a given (mu, nu); None when not constructible.

    At (mu, nu) = (2, 0) the locally equivalent form T = m^2, Phi = g*m^2
    is emitted; otherwise the full density u_xx^2 + mu*ux^2 + (mu-1)*u^2 +
    2*nu*u (with u_xx = u - m) and its flux, which needs G = integral of
    g du in closed form.  Both need g to depend on u alone.
    """
    g = eq.bound_g
    if ex.jet_vars(g) - {ex.U}:
        return None
    if abs(mu - 2.0) < 1e-12 and abs(nu) < 1e-12:
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


def _wh2_mu(sols: GradEnergySolutions) -> float | None:
    """A mu != 2 with (mu, 0) in the solution set, or None.

    A point (mu, 0) gives its mu.  A line with d_nu != 0 meets nu = 0 at
    mu* = mu0 - nu0 * d_mu / d_nu; a line on nu = 0, or the plane, holds
    every mu, and gives the representative mu = 3.
    """
    if sols.kind == "plane":
        return 3.0
    if sols.kind == "point" and abs(sols.nu) < 1e-6 and abs(sols.mu - 2.0) > 1e-6:
        return sols.mu
    if sols.kind == "line":
        dmu, dnu = sols.direction
        if abs(dnu) < 1e-9:
            return 3.0 if abs(sols.nu) < 1e-6 else None
        mu = sols.mu - sols.nu * dmu / dnu
        return mu if abs(mu - 2.0) > 1e-6 else None
    return None


def _wh2_verdict(sols: GradEnergySolutions, va: ZeroVerdict, vc: ZeroVerdict) -> Verdict:
    """Conserved weighted-H2 norm: some (mu != 2, nu = 0) solves the condition.

    va and vc are the zero tests of the coefficients A and C.
    """
    if va.status == "indeterminate":
        return Verdict(None, va.residual_max, va.witness)
    if va.status == "zero":
        return Verdict.from_zero(vc)
    # A nonzero: at nu=0 the residual (mu-2)*A + C admits at most one mu
    if _wh2_mu(sols) is not None:
        return Verdict(True, sols.residual_max)
    return Verdict(False, max(va.residual_max, sols.residual_max))


def classify(eq: EquationSpec, policy: SamplingPolicy | None = None) -> ConservationReport:
    """Run the momentum / H1 / gradient-energy checks and build fluxes.

    The conditions A, B, C are built and zero-tested once, for every
    verdict.  The L2 norm of m corresponds to (mu, nu) = (2, 0) in the
    gradient energy, the weighted H2 norm to some (mu != 2, nu = 0); those
    verdicts are derived from the solution set plus a direct residual test
    and reported indeterminate on any disagreement.  The weighted-H2
    current is built at the mu where the solution set meets nu = 0 (a
    point's mu, a tilted line's crossing, mu = 3 on a line along nu = 0).
    """
    policy = policy or SamplingPolicy()
    split = _split_conditions(eq, policy)
    va, vb, vc = (split.verdict(name) for name in "ABC")
    mom, h1 = Verdict.from_zero(vb), Verdict.from_zero(va)
    sols = _solve_grad_energy(split, policy)

    # the direct test of C and the solution set must agree, else indeterminate
    l2m_set = sols.contains(2.0, 0.0) if sols.kind != "indeterminate" else None
    conserved = l2m_set if Verdict.from_zero(vc).conserved == l2m_set else None
    l2m = Verdict(conserved, vc.residual_max, None if conserved else vc.witness)

    wh2 = _wh2_verdict(sols, va, vc)

    wh2_mu = _wh2_mu(sols) if wh2.conserved else None
    # (the law holds, its builder, the builder's arguments after eq)
    wanted = (
        (mom.conserved, flux_momentum, ()),
        (h1.conserved, flux_h1, ()),
        (l2m.conserved, flux_grad_energy, (2.0, 0.0)),
        (wh2_mu is not None, flux_grad_energy, (wh2_mu, 0.0)),
    )
    currents = (build(eq, *args) for holds, build, args in wanted if holds)
    return ConservationReport(mom, h1, sols, l2m, wh2, tuple(cur for cur in currents if cur is not None))
