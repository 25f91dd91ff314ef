"""Conservation-law verdicts and constructions for the peakon equation class.

Implements the determining-condition residual tests (momentum, H1 norm,
gradient energy over the two-parameter density u_xx^2 + mu*u_x^2 +
(mu-1)*u^2 + 2*nu*u), closed-form density/flux builders for the families
that admit them, the off-shell characteristic-equation checker, and the
multiplier conditions.

The momentum and H1 currents are one construction (_current) over their
multipliers lam = 1 and 2u: lam*Upsilon = D_t T + D_x(lam*g*m - lam*utx)
+ w*m with w = lam*f - lam_u*ux*g, and a current needs w of the form
ux*q(y) + w0*u/y, y = u^2 - ux^2, with q a polynomial or a single
rational power of y.  The regular part is odd in ux and the pole term
even, so w0 is read off the ux-even part at one point; q is then
recognized from what is left.  The gradient-energy current holds
nu*G(u), G = integral of g du, and reads g = q(u) only for nu != 0.  One
recognizer (_recognize) reads q(y) and q(u): exactly off a polynomial
normal form, else by a fit on a probe that must then hold on the whole
sampling box, or no current is built.

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

Every verdict is the expr.ZeroVerdict of its zero test, exact flag and
witness included, from check_momentum, check_h1 and characteristic_check
to the report, whose JSON prints its conserved view (ZeroVerdict.to_json).
"""

from __future__ import annotations

import functools
import json
import math
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

    @cached_property
    def upsilon(self) -> Expr:
        """The defining expression m_t + f*m + D_x(g*m); zero exactly on solutions."""
        return add(var("mt"), mul(self.bound_f, _M), d_x(mul(self.bound_g, _M)))

    @staticmethod
    def from_strings(f: str, g: str, params: dict | None = None) -> "EquationSpec":
        params = dict(params or {})
        return EquationSpec(parse(f, params), parse(g, params), params)


def upsilon(eq: EquationSpec) -> Expr:
    """EquationSpec.upsilon of eq."""
    return eq.upsilon


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

    (weights, forms, layout): one Program over the distinct weights, bound
    to (u, ux), their exact normal forms, and {(condition, m-monomial):
    ((weight index, (function, i, j)), ...)} in template order.
    """
    weights, index, layout = [], {}, {}
    for name, split in _templates().items():
        for mono, pairs in split.items():
            for _, w in pairs:
                if w not in index:
                    index[w] = len(weights)
                    weights.append(w)
            layout[name, mono] = tuple((index[w], (p.of, p.i, p.j)) for p, w in pairs)
    return ex.Program(weights).bind(("u", "ux"), {}), ex.poly_normal_forms(weights), layout


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
    coefficients that are not exact zeros are sampled together, once, as
    the rows of one stacked block, and one vote decides each row of
    samples.values and samples.scales (its largest |weight * partial|).
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
        if pending:
            for k, v in zip(pending, ex.vote(samples, samples.values, samples.scales, policy.rel_tol)):
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
        starts = np.cumsum([0] + [len(live[k]) for k in pending[:-1]])

        def block(env: dict, count: int) -> tuple:
            f_jet, g_jet, *loci = fg.taylor(env)
            w = np.empty((len(weight_forms), count))
            for row, v in zip(w, weights(env["u"], env["ux"])):
                row[:] = v
            values = w[w_rows] * (np.array([f_jet, g_jet])[jet_of, jet_row] * factorial[:, None])
            return values, starts, [locus.distance(jet[0]) for locus, jet in zip(eq.loci, loci)]

        return ex.sample(block, policy, ("u", "ux"))

    return _SplitConditions.voted(forms, sample, policy)


def check_momentum(eq: EquationSpec, policy: SamplingPolicy | None = None) -> ZeroVerdict:
    """Momentum density T = m (equivalently T = u) is conserved iff E_u(f*m) = 0: the ZeroVerdict of B."""
    return _split_conditions(eq, policy or SamplingPolicy()).verdict("B")


def check_h1(eq: EquationSpec, policy: SamplingPolicy | None = None) -> ZeroVerdict:
    """H1 density T = ux^2 + u^2 is conserved iff E_u((u*f - ux*g)*m) = 0: the ZeroVerdict of A."""
    return _split_conditions(eq, policy or SamplingPolicy()).verdict("A")


@dataclass(frozen=True)
class GradEnergySolutions:
    """Solution set in the (mu, nu) plane of the gradient-energy condition.

    kind is one of empty / point / line / plane / indeterminate; for a
    point (mu, nu) is the solution, for a line it is a representative
    point with `direction` spanning the line.  residual_max and exact are
    those of the zero test that decided the set.
    """

    kind: str
    mu: float | None = None
    nu: float | None = None
    direction: tuple[float, float] | None = None
    residual_max: float = 0.0
    exact: bool = False

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
    values, scales = [], []
    for keys in rows:
        (a, b, c), (sa, sb, sc) = split.at_points(keys)
        values.append(weights[0] * a + weights[1] * b + c)
        scales.append(np.maximum(np.maximum(abs(weights[0]) * sa, abs(weights[1]) * sb), sc))  # sc >= 1
    verdicts = ex.vote(split.samples, np.array(values), np.array(scales), rel_tol)
    return _all_zero([_named(v, row) for v, row in zip(verdicts, _AFFINE_ROWS)])


def _judged(v: ZeroVerdict, kind: str, mu=None, nu=None, direction=None) -> GradEnergySolutions:
    """The solution set kind where the zero test v is zero, empty where it is nonzero, else indeterminate."""
    if v.status == "zero":
        return GradEnergySolutions(kind, mu, nu, direction, v.residual_max, v.exact)
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
    left, svals, vt = np.linalg.svd(mat, full_matrices=False)
    smax = svals[0]
    # column magnitudes are O(1) after scale normalization, so compare the
    # rank threshold against max(smax, 1)
    thresh = 1e-7 * max(smax, 1.0)
    if any(thresh / 10.0 < s < thresh * 10.0 for s in svals):
        return _judged(ZeroVerdict("indeterminate", float(smax)), "plane")
    rank = int(np.sum(svals > thresh))
    if rank == 0:
        return _judged(split.verdict("C"), "plane")

    # the minimum-norm solution of the system truncated at that rank: the
    # point, or the line's particular solution (Golub & Van Loan, 5.5)
    sol = vt[:rank].T @ ((left[:, :rank].T @ rhs) / svals[:rank])
    mu, nu = _snap(float(sol[0]) + 2.0), _snap(float(sol[1]))
    v = _candidate_verdict(split, mu, nu, policy.rel_tol)
    if rank == 2:
        return _judged(v, "point", mu, nu)
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


_POLE_U, _POLE_UX = 1.3, 0.6
# where _pole_coefficient reads w: (u, ux) and (u, -ux), off the loci u = 0 and u^2 = ux^2
_POLE_POINTS = {"u": np.array([_POLE_U, _POLE_U]), "ux": np.array([_POLE_UX, -_POLE_UX])}


def _pole_coefficient(terms: list) -> float:
    """Coefficient w0 of the u/(u^2-ux^2) pole in w = ux*q(u^2-ux^2) + w0*u/(u^2-ux^2).

    terms are the values of w's terms at _POLE_POINTS, summed by fsum as
    in ex.evaluate.  The regular part is odd in ux and the pole term even,
    so w0 is the ux-even part of w times (u^2-ux^2)/u.  Snapped to a nearby
    small rational when one matches.  For a w of another form the value is
    meaningless; no current comes of it, because the recognizer rejects
    what is left.
    """
    plus, minus = (ex._fsum(col) for col in np.array([np.broadcast_to(t, (2,)) for t in terms]).T)
    est = 0.5 * float(plus + minus) * (_POLE_U * _POLE_U - _POLE_UX * _POLE_UX) / _POLE_U
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
    r = ex._median(slopes)
    if np.max(np.abs(slopes - r)) > 1e-6 * max(1.0, abs(r)):
        return None
    rfrac = Fraction(r).limit_denominator(12)
    if abs(float(rfrac) - r) > 1e-6:
        return None
    return sgn * ex._median(np.exp(logs - float(rfrac) * np.log(xs))), rfrac


# the normal forms of y = u^2 - ux^2 and of u
_Y_FORM = {(("u", 2),): (1, 0), (("ux", 2),): (-1, 0)}
_U_FORM = {(("u", 1),): (1, 0)}
# the probe of the numeric path: ten values of x on the lines ux = 0.7 and ux = 1.1
_PROBE_X = np.linspace(0.4, 2.2, 10)
_PROBE_UX = np.repeat([0.7, 1.1], len(_PROBE_X))


def _recognize(w: Expr, arg: Expr) -> _Recognized | None:
    """q with w = factor*q(x), where x = arg is u^2-ux^2 (factor ux) or u (factor 1); else None.

    Exact path: where w has a normal form, q's coefficients are those of
    its factor*u^(2k) (or u^k) monomials, and q is accepted only if the
    form of factor*q(x), built as dicts with the float coefficients
    q.expr() holds, equals w's.  Otherwise q = w/factor is probed at ten
    values of x on two lines of ux, where it must agree, and fitted by a
    polynomial of rising degree, else by a single power; a fit is used only
    if _validated accepts it.
    """
    on_y = arg is _Y
    factor, powers, step, x_form = (_UX, {"ux": 1}, 2, _Y_FORM) if on_y else (ex.ONE, {}, 1, _U_FORM)
    nf = ex.poly_normal_form(w)
    if nf is not None:
        rec = _Recognized.polynomial(arg, _coefficients(nf, powers, step))
        form, power = {}, {tuple(powers.items()): (1, 0)}  # power is factor*x^k
        for c, _ in rec.terms:
            coeff = poly._dyadic(float(c))
            if coeff is not None:  # a zero coefficient adds no monomial
                form = poly._padd(form, poly._pmul(power, {(): coeff}))
            power = poly._pmul(power, x_form)
        if form == nf:
            return rec

    xs = np.tile(_PROBE_X, 2)
    at = ex.evaluate(w, {"u": np.sqrt(xs + _PROBE_UX * _PROBE_UX) if on_y else xs, "ux": _PROBE_UX})
    q1, q2 = (at / _PROBE_UX if on_y else at).reshape(2, -1)
    if not (np.all(np.isfinite(q1)) and np.all(np.isfinite(q2))):
        return None
    scale = max(1.0, float(np.max(np.abs(q1))))
    if np.max(np.abs(q1 - q2)) > 1e-8 * scale:
        return None  # depends on more than x

    # polynomial fit with increasing degree, else a single power
    for deg in range(0, 9):
        V = np.vander(_PROBE_X, deg + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(V, q1, rcond=None)
        if np.max(np.abs(V @ coef - q1)) <= 1e-9 * scale:
            snapped = []
            for c in coef:
                fr = Fraction(float(c)).limit_denominator(10**6)
                snapped.append(fr if abs(float(fr) - c) <= 1e-10 * max(1.0, abs(c)) else c)
            cand = _Recognized.polynomial(arg, [0.0 if abs(float(c)) < 1e-12 * scale else c for c in snapped])
            break
    else:
        fit = _power_fit(_PROBE_X, q1)
        if fit is None:
            return None
        cand = _Recognized(arg, (fit,))
    return _validated(w, factor, cand)


_LN_JUMP = fn("ln", div(sub(_U, _UX), add(_U, _UX)))


def _current(eq: EquationSpec, name: str, T: Expr, lam0: float, lam_u: float) -> ConservedCurrent | None:
    """The current of density T and multiplier lam = lam0 + lam_u*u; None when not constructible.

    T must have D_t T = lam*ut + lam_u*ux*utx (T = u for lam = 1, ux^2 + u^2
    for lam = 2u); then lam*Upsilon = D_t T + D_x(lam*g*m - lam*utx) + w*m with
    w = lam*f - lam_u*ux*g.  As D_x y = 2*ux*m for y = u^2-ux^2, a
    w = ux*q(y) + w0*u/y gives w*m = D_x(Q(y)/2 + w0/2*ln((u-ux)/(u+ux)) + w0*x)
    with Q' = q.  So Phi = lam*g*m - lam*utx + Q(y)/2 plus the two pole
    terms, and lam is the current's multiplier.  q is a polynomial or a
    single rational power c*y^r of y (r = -1 integrates to a logarithm);
    w0 is read off the ux-parity (see _pole_coefficient) from the values
    of f and g that eq.program gives.
    """
    lam = add(const(lam0), mul(const(lam_u), _U))
    lam_at = lam0 + lam_u * _POLE_U  # lam at _POLE_POINTS, where u = _POLE_U
    w = mul(lam, eq.bound_f)
    with np.errstate(all="ignore"):  # Program enters none
        f_terms, g_terms = eq.program(_POLE_POINTS)[:2]
        terms = [lam_at * t for t in f_terms]
        if lam_u:  # else g does not enter: 0*g is NaN at a pole of g
            w = sub(w, mul(const(lam_u), _UX, eq.bound_g))
            terms += [-lam_u * _POLE_POINTS["ux"] * t for t in g_terms]
    w0 = _pole_coefficient(terms)
    rec = _recognize(sub(w, mul(const(w0), div(_U, _Y))) if w0 else w, _Y)
    if rec is None:
        return None
    phi = add(mul(lam, eq.bound_g, _M), neg(mul(lam, _UTX)), mul(0.5, rec.antiderivative()))
    if w0:
        phi = add(phi, mul(const(0.5 * w0), _LN_JUMP), mul(const(w0), _X))
    return ConservedCurrent(name, T, phi, lam)


def flux_momentum(eq: EquationSpec) -> ConservedCurrent | None:
    """Closed-form momentum current, T = u and multiplier 1 (_current); None when not constructible."""
    return _current(eq, "momentum", _U, 1.0, 0.0)


def flux_h1(eq: EquationSpec) -> ConservedCurrent | None:
    """Closed-form H1 current, T = ux^2 + u^2 and multiplier 2u (_current); None when not constructible."""
    return _current(eq, "h1", add(pow_(_UX, 2), pow_(_U, 2)), 0.0, 2.0)


def flux_grad_energy(eq: EquationSpec, mu: float, nu: float) -> ConservedCurrent | None:
    """Gradient-energy current at a given (mu, nu); None when not constructible.

    At (mu, nu) = (2, 0) the locally equivalent form T = m^2, Phi = g*m^2
    is emitted; otherwise the full density u_xx^2 + mu*ux^2 + (mu-1)*u^2 +
    2*nu*u (with u_xx = u - m) and its flux, which holds nu*G: for nu != 0
    it needs G = integral of g du, with g = q(u) read by _recognize.  Both
    need g to depend on u alone.
    """
    g = eq.bound_g
    if ex.jet_vars(g) - {ex.U}:
        return None
    if abs(mu - 2.0) < 1e-12 and abs(nu) < 1e-12:
        return ConservedCurrent("l2m", pow_(_M, 2), mul(g, pow_(_M, 2)), mul(2.0, _M))
    nu_G = ex.ZERO
    if nu:
        rec = _recognize(g, _U)
        if rec is None:
            return None
        nu_G = mul(const(nu), rec.antiderivative())
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
        nu_G,
    )
    Q = mul(2.0, add(_M, shift))
    return ConservedCurrent(f"grad_energy(mu={mu:g},nu={nu:g})", T, phi, Q)


def characteristic_check(
    cur: ConservedCurrent, eq: EquationSpec, policy: SamplingPolicy | None = None
) -> ZeroVerdict:
    """Off-shell test of D_t T + D_x Phi - Q * Upsilon = 0 (u arbitrary): the ZeroVerdict of is_zero."""
    resid = sub(add(d_t(cur.T), d_x(cur.Phi)), mul(cur.Q, upsilon(eq)))
    return is_zero(resid, policy)


def multiplier_conditions(T: Expr, Q: Expr, eq: EquationSpec) -> tuple[Expr, Expr]:
    """The pair (E_u(D_t T - Q*Upsilon), E_ut(D_t T - Q*Upsilon)) for zero-testing."""
    E = sub(d_t(T), mul(Q, upsilon(eq)))
    return euler_u(E), euler_ut(E)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ConservationReport:
    momentum: ZeroVerdict
    h1: ZeroVerdict
    grad_energy: GradEnergySolutions
    l2m: ZeroVerdict
    weighted_h2: ZeroVerdict
    fluxes: tuple = ()

    @property
    def determinate(self) -> bool:
        verdicts = (self.momentum, self.h1, self.l2m, self.weighted_h2)
        return self.grad_energy.kind != "indeterminate" and all(v.conserved is not None for v in verdicts)

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


def _wh2_verdict(sols: GradEnergySolutions, va: ZeroVerdict, vc: ZeroVerdict) -> ZeroVerdict:
    """Conserved weighted-H2 norm: some (mu != 2, nu = 0) solves the condition.

    va and vc are the zero tests of A and C.  A nonzero A admits at most
    one mu at nu = 0, read off sols: zero where the set meets nu = 0 at
    some mu != 2 (exact where the set's zero test was), indeterminate
    where the set is, else nonzero.
    """
    if va.status != "nonzero":
        return vc if va.is_zero else va
    if _wh2_mu(sols) is not None:
        return ZeroVerdict("zero", sols.residual_max, exact=sols.exact)
    status = "indeterminate" if sols.kind == "indeterminate" else "nonzero"
    return ZeroVerdict(status, max(va.residual_max, sols.residual_max))


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
    sols = _solve_grad_energy(split, policy)

    # the direct test of C and the solution set must agree, else indeterminate
    l2m_set = sols.contains(2.0, 0.0) if sols.kind != "indeterminate" else None
    l2m = vc if vc.conserved == l2m_set else ZeroVerdict("indeterminate", vc.residual_max, vc.witness)

    wh2 = _wh2_verdict(sols, va, vc)

    wh2_mu = _wh2_mu(sols) if wh2.conserved else None
    # (the law holds, its builder, the builder's arguments after eq)
    wanted = (
        (vb.conserved, flux_momentum, ()),
        (va.conserved, flux_h1, ()),
        (l2m.conserved, flux_grad_energy, (2.0, 0.0)),
        (wh2_mu is not None, flux_grad_energy, (wh2_mu, 0.0)),
    )
    currents = (build(eq, *args) for holds, build, args in wanted if holds)
    return ConservationReport(vb, va, sols, l2m, wh2, tuple(cur for cur in currents if cur is not None))
