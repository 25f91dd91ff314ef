import dataclasses
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from peakonlaws import conslaw
from peakonlaws import expr as ex
from peakonlaws import poly, taylor
from peakonlaws.conslaw import (
    ConservedCurrent,
    EquationSpec,
    characteristic_check,
    check_grad_energy,
    check_h1,
    check_momentum,
    classify,
    flux_grad_energy,
    flux_h1,
    flux_momentum,
    multiplier_conditions,
)
from peakonlaws.expr import (
    ExprError,
    ParseError,
    SamplingPolicy,
    is_zero,
    parse,
    sub,
    to_source,
)

from conftest import _fraction_diff, _fraction_pmul, _fraction_sum

POL = SamplingPolicy()

CH = EquationSpec.from_strings("ux", "u")
DP = EquationSpec.from_strings("2*ux", "u")
NOVIKOV = EquationSpec.from_strings("u*ux", "u^2")
MCH = EquationSpec.from_strings("0", "u^2-ux^2")
SINGULAR = EquationSpec.from_strings("a*ux/u^3", "a/u^2", {"a": 1.0})
L2FAM = EquationSpec.from_strings("-u*ux", "u^2")  # h(u) = u^2 instance


def test_equation_spec_validation():
    with pytest.raises(ExprError):
        EquationSpec.from_strings("0", "0")  # nonlinearity violated
    with pytest.raises(ExprError):
        EquationSpec.from_strings("m", "u")  # f may not depend on m
    with pytest.raises(ParseError):
        EquationSpec.from_strings("a*ux", "u")  # undeclared parameter
    with pytest.raises(ExprError):
        # declared in the expression but without a bound value
        EquationSpec(parse("a*ux", ["a"]), parse("u"), {})


def test_momentum_verdicts():
    assert check_momentum(CH, POL).conserved is True
    assert check_momentum(NOVIKOV, POL).conserved is False
    assert check_momentum(EquationSpec.from_strings("0", "u"), POL).conserved is True


def test_h1_verdicts():
    assert check_h1(DP, POL).conserved is False
    assert check_h1(NOVIKOV, POL).conserved is True  # u*f - ux*g vanishes identically
    assert check_h1(MCH, POL).conserved is True


def test_grad_energy_solution_sets():
    line = check_grad_energy(SINGULAR, POL)
    assert line.kind == "line"
    assert abs(line.nu) < 1e-9 and abs(line.direction[1]) < 1e-9  # nu = 0, mu free
    assert line.contains(2.0, 0.0) and line.contains(7.3, 0.0)
    assert not line.contains(2.0, 0.5)

    point = check_grad_energy(L2FAM, POL)
    assert point.kind == "point"
    assert point.mu == pytest.approx(2.0, abs=1e-9)
    assert point.nu == pytest.approx(0.0, abs=1e-9)

    assert check_grad_energy(CH, POL).kind == "empty"


def test_grad_energy_nu_line_family():
    # f = a*ux, g = -2a*u + be conserves the energy with mu = 2 and nu free
    eq = EquationSpec.from_strings("a*ux", "-2*a*u+b", {"a": 0.7, "b": 1.3})
    sols = check_grad_energy(eq, POL)
    assert sols.kind == "line"
    assert sols.contains(2.0, 0.0) and sols.contains(2.0, 3.7)
    assert not sols.contains(3.0, 0.0)
    rep = classify(eq, POL)
    assert rep.l2m.conserved is True
    assert rep.weighted_h2.conserved is False
    # nu != 0 puts G = integral of g du into the flux
    cur = flux_grad_energy(eq, 2.0, 3.7)
    assert characteristic_check(cur, eq, POL).conserved is True


# the seven reference equations of the verdict benchmark, members
# f = ux*f1(u^2-ux^2) [+ u/(u^2-ux^2)] [+ 0.001*u] of the momentum family
# over its six g forms, and the line family of the free nu
CANDIDATE_EQUATIONS = [
    EquationSpec.from_strings(f, g) for f, g in (
        ("ux", "u"), ("2*ux", "u"), ("u*ux", "u^2"), ("0", "u^2-ux^2"),
        ("ux/u^3", "1/u^2"), ("-u*ux", "u^2"),
        ("ux*(u^2-ux^2)", "u*(u^2-ux^2)+(u^2-ux^2)"),
    )
] + [
    EquationSpec.from_strings("ux*(0.7-1.3*(u^2-ux^2)+0.4*(u^2-ux^2)^2)" + pole + perturbation, g)
    for g in ("u", "u^2", "u^2-ux^2", "1/u^2", "exp(u)", "sqrt(u^2+1)")
    for pole in ("", "+u/(u^2-ux^2)")
    for perturbation in ("", "+0.001*u")
] + [EquationSpec.from_strings("a*ux", "-2*a*u+b", {"a": 0.7, "b": 1.3})]


# ---------------------------------------------------------------------------
# the determining conditions split by m-monomials


def _template_forms() -> dict:
    """{(condition, m-monomial): normal form of its template coefficient, sum of weight * placeholder}."""
    return {(name, mono): ex.poly_normal_form(ex.add(*(ex.mul(w, p) for p, w in weights)))
            for name, split in conslaw._templates().items() for mono, weights in split.items()}


def _rational_form(nf: dict) -> dict:
    """A normal form with each dyadic coefficient (n, e) as the Fraction n * 2**e."""
    return {mono: poly._rational(c) for mono, c in nf.items()}


def test_templates_are_linear_in_the_placeholders():
    # every term of every template is exactly one placeholder, to the
    # first power, times a weight in (u, ux) alone: a coefficient is the
    # sum of weight * partial, and _split_conditions sums it so
    templates = conslaw._templates()
    assert sum(len(split) for split in templates.values()) == 14
    for split in templates.values():
        for weights in split.values():
            placeholders = [p for p, _ in weights]
            assert placeholders and len(set(placeholders)) == len(placeholders)
            for p, w in weights:
                assert isinstance(p, ex.Partial)
                assert not any(isinstance(n, (ex.Partial, ex.Param)) for n, _ in ex._nodes([w]))
                assert ex.jet_vars(w) <= {ex.U, ex.UX}
                nf = ex.poly_normal_form(w)
                assert nf and all(s in ("u", "ux") for mono in nf for s, _ in mono)
    for nf in _template_forms().values():
        for mono in nf:
            assert [k for s, k in mono if s[0] in "fg"] == [1]


@pytest.mark.parametrize("f, g, loci", [
    ("ux*exp(u)", "exp(u)", []),
    ("ux*(u^2-ux^2) + u/(u^2-ux^2)", "u", ["|u^2 - ux^2|"]),
    ("ux/u^3", "1/u^2", ["|u|"]),
])
def test_split_samples_off_the_loci_of_f_and_g(f, g, loci):
    # the split's sample keeps delta away from the singular loci of f and
    # g, and from nothing else: with low < delta, points near u = 0 and
    # u^2 = ux^2 come up wherever these are not loci
    eq = EquationSpec.from_strings(f, g)
    policy = SamplingPolicy(n_points=200, seed=5, low=0.01)
    split = conslaw._split_conditions(eq, policy)
    assert [str(locus) for locus in eq.loci] == loci
    u, ux = split.samples.points.T
    for name, distance in (("|u|", np.abs(u)), ("|u^2 - ux^2|", np.abs(u * u - ux * ux))):
        assert (distance.min() >= policy.delta) == (name in loci), name


@pytest.mark.parametrize("f, g, generic", [
    ("u^3*ux^3 + exp(u*ux)", "sqrt(u^2+1)*ux^4 + u^4*ux", True),
    ("ux", "u", False),  # Camassa-Holm: most partials are zero
])
def test_split_takes_no_diff_and_builds_no_tree(monkeypatch, f, g, generic):
    # a warm split takes no diff and builds no expression node or
    # Program: one poly_normal_forms call, over the top-level terms of f
    # and g, and one Taylor pass of the equation's Program over f and g
    # per sampled block give every coefficient, as the sum of weight *
    # partial over its template's partials that are not zero (f up to
    # order 2, g up to order 3)
    eq = EquationSpec.from_strings(f, g)
    conslaw._split_conditions(eq, POL)  # the templates and weights exist from here on
    real_program, real_sample, real_forms, real_taylor = ex.Program, ex.sample, ex.poly_normal_forms, ex.Program.taylor
    count = {"diff": 0, "node": 0, "taylor": 0, "block": 0}
    programs, forms, blocks, passes = [], [], [], []
    real_post_init = ex.Expr.__post_init__

    class CountingProgram(real_program):
        def __init__(self, exprs, **kwargs):
            programs.append(list(exprs))
            super().__init__(exprs, **kwargs)

    def counting_taylor(program, env):
        count["taylor"] += 1
        passes.append(program)
        return real_taylor(program, env)

    def counting_sample(exprs, policy, names=()):
        def block(env, n):
            count["block"] += 1
            blocks.append(exprs(env, n))
            return blocks[-1]
        return real_sample(block if callable(exprs) else exprs, policy, names)

    def counting(key, fn):
        def counted(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(ex, "Program", CountingProgram)
    monkeypatch.setattr(real_program, "taylor", counting_taylor)
    monkeypatch.setattr(ex, "sample", counting_sample)
    monkeypatch.setattr(ex, "poly_normal_forms", lambda exprs: forms.append(list(exprs)) or real_forms(exprs))
    monkeypatch.setattr(ex, "diff", counting("diff", ex.diff))
    monkeypatch.setattr(ex.Expr, "__post_init__", counting("node", real_post_init))
    split = conslaw._split_conditions(eq, POL)
    monkeypatch.undo()
    assert count["diff"] == 0 and count["node"] == 0
    assert programs == [] and all(p is eq.program for p in passes)
    terms = [t for e in (eq.bound_f, eq.bound_g) for t in (e.terms if isinstance(e, ex.Add) else (e,))]
    assert len(forms) == 1 and [id(e) for e in forms[0]] == [id(t) for t in terms]
    assert count["taylor"] == count["block"] >= 1
    sampled = [k for k, nf in split.forms.items() if nf != {}]
    # a row per sampled coefficient, stacked in one block from its start,
    # and the distances from the singular loci of f and g, read from the
    # same Taylor pass
    terms, starts, distances = blocks[0]
    rows = np.split(terms, starts[1:])
    assert len(rows) == len(sampled) and len(distances) == len(eq.loci)
    if generic:  # no partial of f up to order 2 or of g up to order 3 is zero
        assert sampled == list(split.forms)
        assert [len(t) for t in rows] == [len(conslaw._templates()[name][mono]) for name, mono in sampled]
    # the m^4 coefficient is g_03, zero for Camassa-Holm
    assert (split.forms["C", "m^4"] == {}) == (not generic)
    # a warm classify, its currents included, takes no diff either
    count.update(diff=0, taylor=0, block=0)
    monkeypatch.setattr(ex, "diff", counting("diff", ex.diff))
    monkeypatch.setattr(real_program, "taylor", counting_taylor)
    monkeypatch.setattr(ex, "sample", counting_sample)
    rep = classify(eq, POL)
    monkeypatch.undo()
    assert count["diff"] == 0 and count["taylor"] == count["block"] >= 1
    assert len(rep.fluxes) == (0 if generic else 2)


def test_template_monomials():
    forms = _template_forms()
    assert {mono for name, mono in forms if name in "AB"} == {"1", "m"}
    assert sorted(mono for name, mono in forms if name == "C") == sorted(
        ["m", "m^2", "m^3", "m^4", "m*mx", "m^2*mx", "mx", "mx^2", "mxx", "m*mxx"])
    assert len(forms) == 14 and all(forms.values())
    F = Fraction
    assert _rational_form(forms["B", "m"]) == {
        (("f_02", 1), ("u", 1)): F(1), (("f_10", 1),): F(2), (("f_11", 1), ("ux", 1)): F(1)}
    assert _rational_form(forms["C", "m^4"]) == {(("g_03", 1),): F(1)}
    assert _rational_form(forms["C", "m*mxx"]) == {(("g_01", 1),): F(3)}
    # only f up to order 2 and g up to order 3 enter
    symbols = {s for nf in forms.values() for mono in nf for s, _ in mono}
    assert symbols == {"u", "ux", "f_00", "f_10", "f_01", "f_20", "f_11", "f_02",
                       "g_10", "g_01", "g_20", "g_11", "g_02", "g_30", "g_21", "g_12", "g_03"}


def test_templates_match_sympy():
    # an Euler operator of its own, sum_k (-D_x)^k d/dU_k on the u-jet
    # U0..U9, with f(U0, U1) and g(U0, U1) left unknown; then m = U0 - U2
    # and its derivatives replace U2, U3 and U4, and each coefficient of a
    # monomial in (m, mx, mxx) must equal the package's template
    sp = pytest.importorskip("sympy")
    U = sp.symbols("U0:10")
    m, mx, mxx = sp.symbols("m mx mxx")
    f, g = sp.Function("f")(U[0], U[1]), sp.Function("g")(U[0], U[1])

    def D(e):
        return sum(U[k + 1] * sp.diff(e, U[k]) for k in range(9))

    def euler(e):
        total = 0
        for k in range(5):
            term = sp.diff(e, U[k])
            for _ in range(k):
                term = -D(term)
            total += term
        return sp.expand(total.subs({U[4]: U[0] - m - mxx, U[3]: U[1] - mx}).subs(U[2], U[0] - m))

    M = U[0] - U[2]
    conds = {"A": euler((U[0] * f - U[1] * g) * M), "B": euler(f * M), "C": euler((f + D(g) / 2) * M**2)}

    def monomial(powers) -> str:
        parts = [name if k == 1 else f"{name}^{k}" for name, k in zip(("m", "mx", "mxx"), powers) if k]
        return "*".join(parts) or "1"

    want = {}
    for name, cond in conds.items():
        for powers, c in sp.Poly(cond, m, mx, mxx).terms():
            want[name, monomial(powers)] = c

    def symbol(name: str):
        if name in ("u", "ux"):
            return U[0] if name == "u" else U[1]
        fn, (i, j) = {"f": f, "g": g}[name[0]], (int(name[2]), int(name[3]))
        return sp.diff(fn, *([U[0]] * i + [U[1]] * j)) if i + j else fn

    def as_sympy(nf):
        return sum(sp.Rational(c.numerator, c.denominator) * sp.Mul(*(symbol(s) ** k for s, k in mono))
                   for mono, c in _rational_form(nf).items())

    got = {key: as_sympy(nf) for key, nf in _template_forms().items()}
    assert sorted(got) == sorted(want)
    for key in want:
        assert sp.expand(got[key] - want[key]) == 0, key
    # each weight is the factor of its partial in sympy's coefficient
    for name, split in conslaw._templates().items():
        for mono, weights in split.items():
            coefficient = sp.expand(want[name, mono])
            for p, w in weights:
                weight = as_sympy(ex.poly_normal_form(w))
                assert sp.expand(coefficient.coeff(symbol(p.name)) - weight) == 0, (name, mono, p.name)


# the reference equations and momentum-family members with and without the pole
SPLIT_EQUATIONS = CANDIDATE_EQUATIONS + [
    EquationSpec.from_strings("-0.5*ux*exp(u)", "exp(u)"),
    EquationSpec.from_strings("ux*(u^2-ux^2)^(1/2) + 0.5*u/(u^2-ux^2)", "sqrt(u^2+1)"),
]


@pytest.mark.parametrize("index", range(len(SPLIT_EQUATIONS)))
def test_split_sums_to_the_full_conditions(index, full_conditions):
    # sum_k c_k(u, ux) * m-monomial_k equals A, B and C built whole, to
    # rounding, at the split's sample points in (u, ux), with seeded
    # (m, mx, mxx) there; a coefficient that is an exact zero reads 0
    eq = SPLIT_EQUATIONS[index]
    full = dict(zip("ABC", full_conditions(eq)))
    split = conslaw._split_conditions(eq, POL)
    assert split.samples.names == ["u", "ux"]
    keys = list(split.forms)
    values, scales = split.at_points(keys)
    rng = np.random.default_rng(1000 + index)
    checked = 0
    for j, (u, ux) in enumerate(split.samples.points):
        point = {"u": u, "ux": ux, **dict(zip(("m", "mx", "mxx"), rng.uniform(-2.0, 2.0, 3)))}
        if not all(math.isfinite(ex.evaluate(cond, point)) for cond in full.values()):
            continue
        for name, cond in full.items():
            # every coefficient times its monomial, against the built condition's terms
            monomials = [(k, ex.evaluate(ex.parse(k[1]), point)) for k in keys if k[0] == name]
            terms = [values[keys.index(k)][j] * mono for k, mono in monomials]
            want_terms = [float(t) for t in ex.compile_terms(cond)(point)]
            scale = max([1.0] + [scales[keys.index(k)][j] * abs(mono) for k, mono in monomials]
                        + [abs(t) for t in want_terms])
            assert abs(math.fsum(terms) - math.fsum(want_terms)) <= 1e-12 * scale, (name, point)
        checked += 1
    assert checked >= 12


def test_failed_verdict_names_its_monomial(plain_coefficients):
    # Novikov: momentum fails; DP: H1 fails; CH: L2(m) fails
    for eq, field, cond in ((NOVIKOV, "momentum", "B"), (DP, "h1", "A"), (CH, "l2m", "C")):
        v = getattr(classify(eq, POL), field)
        assert v.conserved is False
        assert set(v.witness) == {"u", "ux", "value", "scale", "monomial"}
        assert v.witness["monomial"] in conslaw._templates()[cond]
        # the witness is a point where that coefficient, built as a tree of
        # diff partials, is not zero, and has the witness's value to rounding
        c = plain_coefficients(eq)[cond, v.witness["monomial"]]
        assert v.witness["value"] != 0.0
        assert ex.evaluate(c, v.witness) == pytest.approx(v.witness["value"], rel=1e-12)
    rep = classify(CH, POL)
    assert rep.momentum.witness is None and rep.h1.witness is None


def _record_candidates(monkeypatch) -> list:
    tried = []
    real = conslaw._candidate_verdict

    def recording(split, mu, nu, rel_tol):
        tried.append((split, mu, nu, real(split, mu, nu, rel_tol)))
        return tried[-1][-1]

    monkeypatch.setattr(conslaw, "_candidate_verdict", recording)
    return tried


def test_grad_candidates_match_the_built_residual(monkeypatch, plain_coefficients, plain_candidate_verdict):
    # each candidate (mu, nu) gets the status, and the exact or sampled
    # path, that is_zero of its residual rows built as expressions from
    # the diff-tree coefficients gives.  classify tries candidates only
    # where the m-monomials of C alone vanish (the L2(m) family), so every
    # equation is also probed at three fixed points, which most fail
    tried = _record_candidates(monkeypatch)
    of = []
    for eq in CANDIDATE_EQUATIONS:
        classify(eq, POL)
        of += [eq] * (len(tried) - len(of))
    for eq in CANDIDATE_EQUATIONS:
        split = conslaw._split_conditions(eq, POL)
        for mu, nu in ((2.0, 0.0), (3.0, 0.0), (2.0, 1.5)):
            conslaw._candidate_verdict(split, mu, nu, POL.rel_tol)
            of.append(eq)
    assert len(tried) > len(CANDIDATE_EQUATIONS)
    for index, ((_, mu, nu, got), eq) in enumerate(zip(tried, of, strict=True)):
        want = plain_candidate_verdict(plain_coefficients(eq), mu, nu, POL)
        assert got.status == want.status, (mu, nu, got, want)
        # exact where the trees are: the dict path also proves the zeros that
        # float-folded trees leave with a residue of rounding size
        assert got.exact >= want.exact, (mu, nu, got, want)
        if got.status == "zero":
            # (mu-2)*a + nu*b + c of the coefficient sums, against the sum of
            # the built row's terms: equal to rounding
            assert got.residual_max == pytest.approx(want.residual_max, abs=1e-14), (index, mu, nu)
    seen = {(v.status, v.exact) for *_, v in tried}
    assert {("zero", True), ("zero", False), ("nonzero", False)} <= seen


def _split(coeffs: dict) -> conslaw._SplitConditions:
    """Synthetic conditions {(condition, m-monomial): source}, zero-tested as classify's are."""
    return conslaw._SplitConditions.tested({k: parse(e) for k, e in coeffs.items()}, POL)


def _conditions(A: str, B: str, C: str) -> conslaw._SplitConditions:
    """Synthetic conditions whose only m-monomial is m."""
    return _split({(name, "m"): e for name, e in zip("ABC", (A, B, C))})


@pytest.mark.parametrize("A, B", [("u*ux", "ux^3"), ("ux/u^3", "ux^3/u")])
def test_grad_energy_point_off_the_nu_axis(A, B):
    # C = 1.5*A - 0.5*B puts the one solution at (mu, nu) = (0.5, 0.5):
    # polynomial conditions take the exact path, rational ones the vote
    sols = conslaw._solve_grad_energy(_conditions(A, B, f"1.5*({A})-0.5*({B})"), POL)
    assert sols.kind == "point"
    assert sols.mu == pytest.approx(0.5, abs=1e-9) and sols.nu == pytest.approx(0.5, abs=1e-9)


def test_weighted_h2_on_a_tilted_line():
    # mu + 3*nu = 5: a line through (2.3, 0.9), direction (0.949, -0.316),
    # that meets nu = 0 at mu* = mu0 - nu0*d_mu/d_nu = 5, where the
    # weighted H2 norm is conserved
    split = _conditions("ux/u^3", "3*ux/u^3", "-3*ux/u^3")
    sols = conslaw._solve_grad_energy(split, POL)
    assert sols.kind == "line" and abs(sols.direction[1]) > 0.1
    assert conslaw._wh2_mu(sols) == pytest.approx(5.0, abs=1e-9)
    assert conslaw._candidate_verdict(split, conslaw._wh2_mu(sols), 0.0, POL.rel_tol).status == "zero"
    assert conslaw._wh2_verdict(sols, split.verdict("A"), split.verdict("C")).conserved is True
    # mu + 3*nu = 2 meets nu = 0 at mu = 2 only: the L2(m) norm, not a weighted H2 norm
    split = _conditions("ux/u^3", "3*ux/u^3", "0")
    sols = conslaw._solve_grad_energy(split, POL)
    assert sols.kind == "line" and conslaw._wh2_mu(sols) is None
    assert conslaw._wh2_verdict(sols, split.verdict("A"), split.verdict("C")).conserved is False


@pytest.mark.parametrize("A, B, C, mu", [
    ("u*ux", "ux^3", "-1.5*u*ux", 3.5),  # the point (3.5, 0)
    ("u*ux", "ux^3", "1.5*u*ux-0.5*ux^3", None),  # the point (0.5, 0.5), off the nu = 0 axis
    ("u*ux", "ux^3", "0", None),  # the point (2, 0): the L2(m) norm
])
def test_weighted_h2_at_a_point(A, B, C, mu):
    split = _conditions(A, B, C)
    sols = conslaw._solve_grad_energy(split, POL)
    assert sols.kind == "point"
    assert conslaw._wh2_mu(sols) == (None if mu is None else pytest.approx(mu, abs=1e-9))
    wh2 = conslaw._wh2_verdict(sols, split.verdict("A"), split.verdict("C"))
    assert wh2.conserved is (mu is not None)
    # polynomial conditions: the set comes from an exact zero test, and a
    # conserved weighted-H2 verdict keeps its exact flag
    assert wh2.exact is (mu is not None) and sols.exact


@pytest.mark.parametrize("sols, mu", [
    (conslaw.GradEnergySolutions("line", 2.0, 0.0, (1.0, 0.0)), 3.0),  # on nu = 0: the representative mu = 3
    (conslaw.GradEnergySolutions("line", 2.3, 0.9, (0.9486832980505138, -0.31622776601683794)), 5.0),
    (conslaw.GradEnergySolutions("point", 5.0, 0.0), 5.0),
])
def test_classify_builds_the_weighted_h2_current_at_its_mu(monkeypatch, sols, mu):
    # the singular equation conserves the gradient energy on all of nu = 0;
    # given a tilted line or a point of that set, classify builds the
    # weighted H2 current where the set meets nu = 0, and it verifies
    monkeypatch.setattr(conslaw, "_solve_grad_energy", lambda split, policy: sols)
    rep = classify(SINGULAR, POL)
    assert rep.weighted_h2.conserved is True
    (cur,) = [c for c in rep.fluxes if c.name.startswith("grad_energy")]
    assert cur.name == f"grad_energy(mu={mu:g},nu=0)"
    assert characteristic_check(cur, SINGULAR, POL).conserved is True


def test_grad_energy_scale_covers_cancelling_coefficients():
    # B = 3*A with terms of size 1e12 and C = 0: the solutions are the line
    # mu - 2 + 3*nu = 0, where (mu-2)*a + nu*b cancels to rounding size,
    # about 1e-4; each point judges it against |mu-2|*s_A and |nu|*s_B
    sols = conslaw._solve_grad_energy(_conditions("1e12*ux/u^3", "3e12*ux/u^3", "0"), POL)
    assert sols.kind == "line"
    assert sols.contains(2.0, 0.0) and sols.contains(-1.0, 1.0)


# sqrt(u^2) - u is zero where u > 0 only: the sampled points split their vote
SPLIT_VOTE = "sqrt(u^2) - u"


@pytest.mark.parametrize("coeffs, kind", [
    # every coefficient an exact zero: nothing is sampled
    ({("A", "m"): "0", ("B", "m"): "0", ("C", "m"): "(u+ux)^2 - u^2 - 2*u*ux - ux^2"}, "plane"),
    # a coefficient of C alone (here of m^2) must vanish on its own
    ({("A", "m"): "ux", ("B", "m"): "u", ("C", "m"): "0", ("C", "m^2"): "u"}, "empty"),
    ({("A", "m"): "ux", ("B", "m"): "u", ("C", "m"): "0", ("C", "m^2"): SPLIT_VOTE}, "indeterminate"),
    # rank 0: A and B vanish, and C decides the whole plane
    ({("A", "m"): "0", ("B", "m"): "0", ("C", "m"): "exp(u)*exp(-u) - 1"}, "plane"),
    ({("A", "m"): "0", ("B", "m"): "0", ("C", "m"): "u"}, "empty"),
    ({("A", "m"): "0", ("B", "m"): "0", ("C", "m"): SPLIT_VOTE}, "indeterminate"),
    # rank 2: the one candidate fails
    ({("A", "m"): "u*ux", ("B", "m"): "ux^3", ("C", "m"): "ux"}, "empty"),
    # rank 1: (mu-2) + 3*nu = 0 fits the m row; C outside the span, or a
    # split vote in the 1 row that no (mu, nu) reaches
    ({("A", "m"): "ux", ("B", "m"): "3*ux", ("C", "m"): "u"}, "empty"),
    ({("A", "m"): "ux", ("B", "m"): "3*ux", ("C", "1"): SPLIT_VOTE}, "indeterminate"),
])
def test_each_grad_energy_outcome(coeffs, kind):
    split = _split(coeffs)
    sols = conslaw._solve_grad_energy(split, POL)
    assert sols.kind == kind
    assert sols.mu is None and sols.nu is None and sols.direction is None
    if split.verdict("A").status == split.verdict("B").status == "zero":  # rank 0: C's residual
        assert sols.residual_max == split.verdict("C").residual_max


def test_grad_energy_rank_ambiguity_is_indeterminate():
    # A = ux and B = ux + 1e-7*u: the smaller singular value of the scaled
    # system lies within a factor 10 of the rank threshold 1e-7 * max(smax, 1)
    split = _conditions("ux", "ux + 1e-7*u", "0")
    sols = conslaw._solve_grad_energy(split, POL)
    assert sols.kind == "indeterminate" and sols.mu is None
    assert sols.residual_max > 1.0  # the largest singular value, reported as the residual


def test_grad_energy_line_through_the_minimum_norm_point(monkeypatch):
    # 1e-10*u^2 leaves the second singular value under the rank threshold:
    # rank 1, and the line nu = 0 through the minimum-norm solution of the
    # system truncated at that rank, (2, 0), all read off one SVD
    calls = []

    def spy(name):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(name) or real(*a, **k))

    spy("svd")
    spy("lstsq")
    sols = check_grad_energy(EquationSpec.from_strings("ux/u^3 + 1e-10*u^2", "1/u^2"), POL)
    assert calls == ["svd"]
    assert sols.kind == "line" and sols.direction == (1.0, 0.0)
    assert (sols.mu, sols.nu) == pytest.approx((2.0, 0.0), abs=1e-9)


@pytest.mark.parametrize("f, g", [("-u*ux + 1e-9*u^2", "u^2"), ("-u*ux", "u^2 + 1e-9*u")])
def test_weighted_h2_is_indeterminate_where_the_set_is(f, g):
    # A is nonzero, so only the (mu, nu) set can say whether some mu != 2
    # holds at nu = 0; an indeterminate set says neither yes nor no
    rep = classify(EquationSpec.from_strings(f, g), POL)
    assert rep.h1.conserved is False and rep.grad_energy.kind == "indeterminate"
    assert rep.weighted_h2.conserved is None
    assert not rep.determinate


def test_report_keeps_the_exact_flags():
    # the report holds the zero tests that ran, flag and all; its JSON
    # prints what it printed before
    rep = classify(CH, POL)
    assert rep.momentum.exact and rep.h1.exact
    checks = [characteristic_check(cur, CH, POL) for cur in rep.fluxes]
    assert [cur.name for cur in rep.fluxes] == ["momentum", "h1"]
    assert all(v.is_zero and v.exact for v in checks)
    assert rep.to_json()["momentum"] == {"conserved": True, "residual_max": 0.0}
    assert not rep.l2m.exact and set(rep.to_json()["l2m"]) == {"conserved", "residual_max", "witness"}


@pytest.mark.parametrize("first, second, kind, residual", [
    (("zero", 1e-12), ("zero", 3e-12), "line", 3e-12),
    (("zero", 1.0), ("nonzero", 5.0), "empty", 5.0),
    (("nonzero", 5.0), ("zero", 1.0), "empty", 5.0),
    # _all_zero combines them: a nonzero candidate outranks an indeterminate
    # one, and the failing candidate gives the residual
    (("nonzero", 5.0), ("indeterminate", 7.0), "empty", 5.0),
    (("indeterminate", 7.0), ("nonzero", 5.0), "empty", 5.0),
    (("zero", 0.0), ("indeterminate", 3.0), "indeterminate", 3.0),
])
def test_grad_energy_line_from_its_two_candidates(monkeypatch, first, second, kind, residual):
    # rank 1 tests the particular solution and one step along the null
    # direction; the set follows from both verdicts
    verdicts = iter([ex.ZeroVerdict(*first), ex.ZeroVerdict(*second)])
    monkeypatch.setattr(conslaw, "_candidate_verdict", lambda *args: next(verdicts))
    sols = conslaw._solve_grad_energy(_conditions("ux", "3*ux", "u"), POL)
    assert (sols.kind, sols.residual_max) == (kind, residual)
    assert (sols.direction is None) is (kind != "line")
    assert next(verdicts, None) is None


def test_solve_grad_energy_reuses_the_fit_samples(monkeypatch):
    # one sample of the coefficients serves their zero tests, the fit and
    # every candidate: no is_zero, one sample call, with a row for each
    # coefficient that is not an exact zero, no Program beyond the
    # equation's own, and one poly_normal_forms call, over the top-level
    # terms of f and g; the candidates expand and compile nothing.
    # Candidates are tried only where the m-monomials of C alone vanish:
    # on members f = -ux*h'(u)/2, g = h(u) of the L2(m) family
    for eq in (L2FAM, SINGULAR, CANDIDATE_EQUATIONS[-1], EquationSpec.from_strings("-0.5*ux*exp(u)", "exp(u)"),
               EquationSpec.from_strings("-0.5*ux*u/sqrt(u^2+1)", "sqrt(u^2+1)")):
        sampled, programs, forms = [], [], []
        real_sample, real_program, real_forms = ex.sample, ex.Program, ex.poly_normal_forms

        class CountingProgram(real_program):
            def __init__(self, exprs, **kwargs):
                programs.append(list(exprs))
                super().__init__(exprs, **kwargs)

        def counting_sample(exprs, policy, names=()):
            samples = real_sample(exprs, policy, names)
            sampled.append(samples)
            return samples

        def counting_forms(exprs):
            forms.append(list(exprs))
            return real_forms(exprs)

        def no_is_zero(e, policy=None):
            raise AssertionError("is_zero called")

        terms = [t for e in (eq.bound_f, eq.bound_g) for t in (e.terms if isinstance(e, ex.Add) else (e,))]
        assert eq.program is eq.program  # built once per equation, before the counts
        tried = _record_candidates(monkeypatch)
        monkeypatch.setattr(ex, "sample", counting_sample)
        monkeypatch.setattr(ex, "Program", CountingProgram)
        monkeypatch.setattr(ex, "poly_normal_forms", counting_forms)
        monkeypatch.setattr(conslaw, "is_zero", no_is_zero)
        split = conslaw._split_conditions(eq, POL)
        made = len(programs), len(forms)
        conslaw._solve_grad_energy(split, POL)
        monkeypatch.undo()
        assert tried
        assert (len(programs), len(forms)) == made == (0, 1)
        assert [id(e) for e in forms[0]] == [id(t) for t in terms]
        assert len(sampled) == 1 and sampled[0] is split.samples
        assert len(split.samples.values) == sum(nf != {} for nf in split.forms.values()) == len(split.rows)
    # classify splits once, and the candidates reuse the split's forms;
    # the flux builders expand expressions of their own
    for eq in (L2FAM, CANDIDATE_EQUATIONS[10]):
        forms, splits = [], []
        real_forms = ex.poly_normal_forms
        terms = [t for e in (eq.bound_f, eq.bound_g) for t in (e.terms if isinstance(e, ex.Add) else (e,))]
        monkeypatch.setattr(ex, "poly_normal_forms", lambda exprs: forms.append(list(exprs)) or real_forms(exprs))
        monkeypatch.setattr(conslaw, "_split_conditions", _keep(conslaw._split_conditions, splits))
        classify(eq, POL)
        monkeypatch.undo()
        assert len(splits) == 1
        of_terms = [f for f in forms if any(e is t for e in f for t in terms)]
        assert len(of_terms) == 1 and [id(e) for e in of_terms[0]] == [id(t) for t in terms]


def test_nodes_hold_only_their_fields():
    # expressions are plain values: classify and the flux builders leave no
    # compiled program, normal form or other state on any node they read
    currents = []
    for eq in CANDIDATE_EQUATIONS:
        currents += classify(eq, POL).fluxes
        currents += [flux_momentum(eq), flux_h1(eq), flux_grad_energy(eq, 3.0, 0.5), flux_grad_energy(eq, 2.0, 3.7)]
    roots = [e for eq in CANDIDATE_EQUATIONS for e in (eq.bound_f, eq.bound_g)]
    roots += [e for split in conslaw._templates().values() for weights in split.values()
              for pw in weights for e in pw]
    roots += [e for cur in currents if cur is not None for e in (cur.T, cur.Phi, cur.Q)]
    assert len(roots) > 2 * len(CANDIDATE_EQUATIONS) + 14
    # nodes are slotted: no instance dict, and the slots over each class's
    # MRO are its fields and the hash (3.10 re-declares inherited slots)
    slots = {}
    for n, _ in ex._nodes(roots):
        assert not hasattr(n, "__dict__"), n
        cls = type(n)
        if cls not in slots:
            slots[cls] = set().union(*(c.__dict__.get("__slots__", ()) for c in cls.__mro__))
            assert slots[cls] == {f.name for f in dataclasses.fields(n)} | {"_hash"}, cls
        assert all(hasattr(n, s) for s in slots[cls]), n
    assert {cls.__name__ for cls in slots} >= {"Const", "Var", "Add", "Mul", "Pow"}


def _keep(fn, out: list):
    def kept(*args):
        out.append(fn(*args))
        return out[-1]
    return kept


TABLE = {
    # name: (eq, momentum, h1, l2m, weighted_h2)
    "camassa_holm": (CH, True, True, False, False),
    "degasperis_procesi": (DP, True, False, False, False),
    "novikov": (NOVIKOV, False, True, False, False),
    "modified_camassa_holm": (MCH, True, True, False, False),
}


@pytest.mark.parametrize("name", sorted(TABLE))
def test_known_equation_grid(name):
    eq, mom, h1, l2m, wh2 = TABLE[name]
    rep = classify(eq, POL)
    assert rep.momentum.conserved is mom
    assert rep.h1.conserved is h1
    assert rep.l2m.conserved is l2m
    assert rep.weighted_h2.conserved is wh2
    # classify shares its zero tests; the standalone checks must agree
    assert rep.momentum == check_momentum(eq, POL)
    assert rep.h1 == check_h1(eq, POL)
    assert rep.grad_energy == check_grad_energy(eq, POL)


def test_classify_builds_each_condition_once(monkeypatch):
    # euler_u builds the three templates on the first classify of a process
    # and runs no more: every later classify only weights the partials of
    # f and g by them and samples the coefficients, once
    real_euler_u = conslaw.euler_u
    built, sampled = [], []

    def counting_euler_u(e):
        built.append(real_euler_u(e))
        return built[-1]

    real_sample = ex.sample
    monkeypatch.setattr(conslaw, "euler_u", counting_euler_u)
    monkeypatch.setattr(ex, "sample", lambda exprs, policy, names=(): sampled.append(exprs) or real_sample(
        exprs, policy, names))
    conslaw._templates.cache_clear()
    conslaw._weights.cache_clear()
    per_classify = []
    # the momentum/H1 overlap instance: every verdict and both fluxes, which
    # the exact path builds without a sample of their own
    eq = EquationSpec.from_strings("ux*(u^2-ux^2)", "u*(u^2-ux^2)+(u^2-ux^2)")
    for _ in range(3):
        sampled.clear()
        before = len(built)
        rep = classify(eq, POL)
        per_classify.append(len(built) - before)
        assert rep.momentum.conserved and rep.h1.conserved
        assert len(sampled) == 1 and callable(sampled[0])
    monkeypatch.undo()
    assert per_classify == [3, 0, 0]
    assert conslaw.euler_u is ex.euler_u


def test_singular_family_report():
    rep = classify(SINGULAR, POL)
    assert rep.momentum.conserved is False
    assert rep.h1.conserved is True
    assert rep.l2m.conserved is True
    assert rep.weighted_h2.conserved is True


def test_h1_family_random_members():
    # f = ux*h(u,ux), g = u*h(u,ux) conserves the H1 norm for any h
    rng = np.random.default_rng(41)
    u, ux = parse("u"), parse("ux")
    for trial in range(5):
        terms = []
        for _ in range(4):
            a, b = (int(v) for v in rng.integers(0, 3, 2))
            terms.append(float(rng.uniform(-2, 2)) * u**a * ux**b)
        h = sum(terms[1:], terms[0])
        eq = EquationSpec(ux * h, u * h)
        assert check_h1(eq, SamplingPolicy(seed=500 + trial)).conserved is True


def test_l2m_family_random_members():
    # f = -ux*h'(u)/2, g = h(u) puts (mu, nu) = (2, 0) in the solution set
    rng = np.random.default_rng(43)
    u, ux = parse("u"), parse("ux")
    from peakonlaws.expr import U as UVAR
    from peakonlaws.expr import diff

    for trial in range(5):
        coeffs = rng.uniform(-2, 2, 4)
        h = sum((float(c) * u**k for k, c in enumerate(coeffs[1:], start=1)), float(coeffs[0]) * u**0)
        eq = EquationSpec(-0.5 * ux * diff(h, UVAR), h)
        sols = check_grad_energy(eq, SamplingPolicy(seed=600 + trial))
        assert sols.contains(2.0, 0.0), (trial, sols)


def test_momentum_h1_overlap_instance():
    eq = EquationSpec.from_strings("ux*(u^2-ux^2)", "u*(u^2-ux^2)+(u^2-ux^2)")
    assert check_momentum(eq, POL).conserved is True
    assert check_h1(eq, POL).conserved is True


def test_scaling_invariance_of_verdicts():
    for lam in (0.5, 2.3):
        eq = EquationSpec.from_strings(f"{lam}*ux", f"{lam}*u")
        rep = classify(eq, POL)
        assert (rep.momentum.conserved, rep.h1.conserved, rep.l2m.conserved) == (
            True, True, False,
        )


# golden verdicts: the 7 reference equations and 36 family members
# f = ux*f1(u^2-ux^2) [+ u/(u^2-ux^2)] [+ 0.001*u] over the six g forms,
# the pole term and f1 of degree 0, 1 and 2, with a third perturbed
GOLDEN_PATH = Path(__file__).parent / "data" / "verdicts_golden.json"
GOLDEN_F1 = ("0.7", "-0.9+1.7*(u^2-ux^2)", "0.4-1.3*(u^2-ux^2)+1.1*(u^2-ux^2)^2")
GOLDEN_G = ("u", "u^2", "u^2-ux^2", "1/u^2", "exp(u)", "sqrt(u^2+1)")
GOLDEN_EQUATIONS = [
    ("ux", "u"), ("2*ux", "u"), ("u*ux", "u^2"), ("0", "u^2-ux^2"),
    ("ux/u^3", "1/u^2"), ("-u*ux", "u^2"), ("ux*(u^2-ux^2)", "u*(u^2-ux^2)+(u^2-ux^2)"),
] + [
    (f"ux*({f1})" + ("+u/(u^2-ux^2)" if pole else "") + ("+0.001*u" if (gi + pole + d) % 3 == 0 else ""), g)
    for gi, g in enumerate(GOLDEN_G) for pole in (0, 1) for d, f1 in enumerate(GOLDEN_F1)
]


def _golden_record(f: str, g: str) -> dict:
    """Every verdict, the grad-energy set and every current of classify; no residual or witness."""
    rep = classify(EquationSpec.from_strings(f, g), SamplingPolicy(seed=42))
    doc = {key: getattr(rep, key).conserved for key in ("momentum", "h1", "l2m", "weighted_h2")}
    doc["grad_energy"] = rep.grad_energy.to_json()
    doc["fluxes"] = [cur.to_json() for cur in rep.fluxes]
    return doc


def test_verdicts_equal_the_golden_record():
    # recorded from the full-tree conditions (A, B, C each built by
    # euler_u and sampled in the m-jet); regenerate with
    # {f"{f} | {g}": _golden_record(f, g) for f, g in GOLDEN_EQUATIONS}
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(f"{f} | {g}" for f, g in GOLDEN_EQUATIONS)
    for f, g in GOLDEN_EQUATIONS:
        assert _golden_record(f, g) == golden[f"{f} | {g}"], (f, g)


# f and g of the golden equations, one expression per function of the
# vocabulary, and fractional and negative powers
TAYLOR_EXPRESSIONS = sorted({e for pair in GOLDEN_EQUATIONS for e in pair}) + [
    "exp(u*ux) + ux", "ln(u + 2*ux)", "sqrt(u^2 + ux)*ux", "sin(u*ux^2)", "u*cos(u - ux)", "arctanh(u*ux/4)",
    "(u^2 + ux^2)^(1/3)", "u^(-5/2)*ux^3", "(u - ux)^-3", "ux^(3/2)/u", "exp(u)", "u^2*ux", "3",
]


def test_taylor_expressions_cover_every_function():
    assert {name for e in TAYLOR_EXPRESSIONS for name in ex.FN_NAMES if name + "(" in e} == set(ex.FN_NAMES)


@pytest.mark.parametrize("source", TAYLOR_EXPRESSIONS)
def test_taylor_partials_equal_the_diff_trees(source):
    # the 10 Taylor coefficients times i! j! are the partials that diff
    # trees give at the same points, to 1e-12 relative, and the
    # structurally zero ones are exactly those diff returns as ZERO
    e = parse(source)
    program = ex.Program([e])
    rng = np.random.default_rng(77)
    env = {"u": rng.uniform(0.6, 1.8, 30), "ux": rng.uniform(0.05, 0.5, 30)}
    jet, = program.taylor(env)
    support = set().union(*program.supports[0])
    for k, (i, j) in enumerate(ex.JET):
        d = e
        for v in ("u",) * i + ("ux",) * j:
            d = ex.diff(d, v)
        assert (k not in support) == (d == ex.ZERO), (i, j)
        want = np.broadcast_to(ex.evaluate(d, env), (30,))
        got = jet[k] * math.factorial(i) * math.factorial(j)
        assert np.all(np.isfinite(want))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (i, j, np.max(np.abs(got - want)))


def test_taylor_code_is_a_fixed_set_of_flat_arrays():
    # a program's Taylor code is the same four numeric arrays whatever its
    # step count, one row of steps per step, and no Python function
    programs = [ex.Program([parse(s)]) for s in ("u", "u*ux", "exp(u*ux) + ux^(3/2)/u")]
    programs += [eq.program for eq in CANDIDATE_EQUATIONS]
    shapes = set()
    for program in programs:
        code, supports = program._taylor_code()
        assert program._taylor_code()[0] is code  # made once
        assert isinstance(code, taylor.Code) and len(code) == 4
        assert all(isinstance(a, np.ndarray) and a.dtype.kind in "if" for a in code)
        assert len(code.steps) == len(code.exponents) == len(program._code)
        assert code.bounds[-1] == len(code.index) and supports == program.supports
        shapes.add(len(program._code))
    assert len(shapes) >= 4 and min(shapes) == 0


# ---------------------------------------------------------------------------
# fluxes


def test_ch_momentum_flux_closed_form():
    cur = flux_momentum(CH)
    assert cur is not None
    expected = parse("u*m - utx + 0.5*(u^2-ux^2)")
    assert is_zero(sub(cur.Phi, expected), POL).is_zero
    assert to_source(cur.T) == "u"
    assert characteristic_check(cur, CH, POL).conserved is True


def test_mch_h1_flux_verifies_off_shell():
    cur = flux_h1(MCH)
    assert cur is not None
    assert characteristic_check(cur, MCH, POL).conserved is True


def test_l2_flux_instance():
    cur = flux_grad_energy(L2FAM, 2.0, 0.0)
    assert cur is not None
    assert is_zero(sub(cur.T, parse("m^2")), POL).is_zero
    assert is_zero(sub(cur.Phi, parse("u^2*m^2")), POL).is_zero
    assert characteristic_check(cur, L2FAM, POL).conserved is True


def test_pole_family_momentum_flux():
    # f carrying the u/(u^2-ux^2) pole: flux needs the log/x terms
    eq = EquationSpec.from_strings("ux*(u^2-ux^2) + u/(u^2-ux^2)", "u")
    assert check_momentum(eq, POL).conserved is True
    cur = flux_momentum(eq)
    assert cur is not None
    assert characteristic_check(cur, eq, POL).conserved is True


# f1 forms the recognizer supports beyond polynomials: single powers of
# y = u^2-ux^2, with r = -1 integrating to a logarithm
POWER_F1 = ("ux/(u^2-ux^2)", "ux*(u^2-ux^2)^(-1/2)", "ux*(u^2-ux^2)^(1/2)")


POWER_FAMILY = list(POWER_F1) + [f1 + pole for f1 in POWER_F1[1:] for pole in ("+u/(u^2-ux^2)", "+0.5*u/(u^2-ux^2)")]


@pytest.mark.parametrize("f", POWER_FAMILY)
def test_power_family_momentum_flux(f):
    eq = EquationSpec.from_strings(f, "u")
    assert check_momentum(eq, POL).conserved is True
    cur = flux_momentum(eq)
    assert cur is not None
    assert characteristic_check(cur, eq, POL).conserved is True


@pytest.mark.parametrize("f1", ["ux*(0.7-1.3*(u^2-ux^2)+0.4*(u^2-ux^2)^2)", "ux",
                                "ux*(u^2-ux^2)^(1/2)", "-2*ux*(u^2-ux^2)^(-3/2)", "ux/(u^2-ux^2)"])
@pytest.mark.parametrize("f0", ["0", "1", "-1/2", "2/3"])
def test_pole_coefficient_reads_the_even_part(f1, f0):
    w = parse(f"{f1} + ({f0})*u/(u^2-ux^2)")
    assert conslaw._pole_coefficient(ex.compile_terms(w)(conslaw._POLE_POINTS)) == float(Fraction(f0))


@pytest.mark.parametrize("law, f, g", [
    ("momentum", f, "u^2") for f in ("ux*(0.7-1.3*(u^2-ux^2)+0.4*(u^2-ux^2)^2)", "ux + u/(u^2-ux^2)",
                                     "-2*ux*(u^2-ux^2) - 0.5*u/(u^2-ux^2)")
] + [
    # CH, MCH, Novikov and the momentum-H1 overlap
    ("h1", f, g) for f, g in (("ux", "u"), ("0", "u^2-ux^2"), ("u*ux", "u^2"),
                              ("ux*(u^2-ux^2)", "u*(u^2-ux^2)+(u^2-ux^2)"))
])
def test_warm_flux_compiles_no_program(monkeypatch, law, f, g):
    # w0 is read from the values of the equation's Program, and q is
    # checked on the normal form already taken: a warm momentum or H1
    # current of a polynomial w compiles nothing
    eq = EquationSpec.from_strings(f, g)
    assert getattr(classify(eq, POL), law).conserved is True
    build = getattr(conslaw, f"flux_{law}")
    built = []

    class CountingProgram(ex.Program):
        def __init__(self, exprs, **kwargs):
            built.append(list(exprs))
            super().__init__(exprs, **kwargs)

    monkeypatch.setattr(ex, "Program", CountingProgram)
    cur = build(eq)
    monkeypatch.undo()
    assert cur is not None and built == []
    assert characteristic_check(cur, eq, POL).conserved is True


@pytest.mark.parametrize("f", ["ux*sqrt(ux)", "ux + 1/(u - 1.3)"])
def test_flux_momentum_lets_no_numpy_warning_out(f):
    # the pole points (1.3, +-0.6) meet a domain edge or a pole of these f
    eq = EquationSpec.from_strings(f, "u")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert flux_momentum(eq) is None


@pytest.mark.parametrize("h", ["exp(u^2-ux^2)", "(u^2-ux^2)^2", "(u^2-ux^2)^-2", "1+u^2-ux^2"])
def test_no_pole_form_builds_no_current(h):
    # u*h(y) is even in ux but not a multiple of u/y: no momentum or H1 current
    assert flux_momentum(EquationSpec.from_strings(f"u*({h})", "u")) is None
    assert flux_h1(EquationSpec.from_strings(h, "0")) is None


# the pole branch of H1: f = h0/(2y), g = -h0*u/(2*ux*y) with h0 = 1, so w = 2*(u*f - ux*g) = 2*u/y
H1_POLE = ("0.5/(u^2-ux^2)", "-0.5*u/(ux*(u^2-ux^2))")


def test_h1_pole_family_flux():
    eq = EquationSpec.from_strings(*H1_POLE)
    assert check_h1(eq, POL).conserved is True
    cur = flux_h1(eq)
    assert cur is not None
    assert characteristic_check(cur, eq, POL).conserved is True


def _validations(monkeypatch) -> list:
    """A spy on conslaw._validated: what each call accepted (None when it rejected the fit)."""
    seen, real = [], conslaw._validated
    monkeypatch.setattr(conslaw, "_validated", lambda *args: seen.append(real(*args)) or seen[-1])
    return seen


@pytest.mark.parametrize("w, q", [("ux*(u^4-ux^4)/(u^2+ux^2)", "u^2-ux^2"), ("3*ux*exp(u)*exp(-u)", "3"),
                                  ("2*ux/u^2 - 2*u*ux/u^3", "0"), ("ux*ln(4+u^2-ux^2)", None)])
def test_recognizer_fits_q_where_w_has_no_normal_form(monkeypatch, w, q):
    # no normal form, so the numeric path fits q on its probe; a fit that
    # only matches there (ln(4+y)) is rejected by the off-shell validation
    w = parse(w)
    assert ex.poly_normal_form(w) is None
    validations = _validations(monkeypatch)
    rec = conslaw._recognize(w, conslaw._Y)
    assert len(validations) == 1 and validations[0] is rec
    if q is None:
        assert rec is None
    else:
        assert ex.poly_normal_form(sub(rec.expr(), parse(q))) == {}
    # the momentum builder reads the same q: a current that verifies, or none
    eq = EquationSpec(w, parse("u"))
    assert check_momentum(eq, POL).conserved is True
    cur = flux_momentum(eq)
    assert (cur is None) is (q is None)
    if cur is not None:
        assert characteristic_check(cur, eq, POL).conserved is True


@pytest.mark.parametrize("g, G", [("1/u^2", "-1/u"), ("(u^3+u)/u", "u + 0.3333333333333333*u^3")])
def test_recognizer_reads_g_of_u_by_the_same_path(monkeypatch, g, G):
    # G = integral of g du, for a g with no normal form: a single power, or
    # a polynomial that only the degree ladder finds
    g = parse(g)
    assert ex.poly_normal_form(g) is None
    validations = _validations(monkeypatch)
    rec = conslaw._recognize(g, conslaw._U)
    assert len(validations) == 1 and validations[0] is rec is not None
    assert to_source(rec.antiderivative()) == G
    assert is_zero(sub(ex.diff(rec.antiderivative(), ex.U), g), POL).is_zero
    assert flux_grad_energy(EquationSpec(parse("ux"), g), 3.0, 0.5) is not None


def test_gradient_energy_current_needs_g_only_where_nu_is_not_zero(recognized):
    # G enters Phi as nu*G: at nu = 0 no G is read, so a g with no closed-form
    # integral still gives the current; at nu != 0 it gives none
    eq = EquationSpec.from_strings("ux", "exp(u)")
    assert flux_grad_energy(eq, 3.0, 0.5) is None
    assert [arg for _, arg, _, _ in recognized] == [conslaw._U]
    assert flux_grad_energy(eq, 3.0, 0.0) is not None and len(recognized) == 1
    # the singular equation's weighted-H2 current is built at nu = 0
    recognized.clear()
    eq = EquationSpec.from_strings("ux/u^3", "1/u^2")
    rep = classify(eq, POL)
    assert rep.weighted_h2.conserved is True
    (cur,) = [c for c in rep.fluxes if c.name.startswith("grad_energy")]
    assert cur.name == "grad_energy(mu=3,nu=0)"
    assert characteristic_check(cur, eq, POL).conserved is True
    assert recognized and all(arg is conslaw._Y for _, arg, _, _ in recognized)


def test_polynomial_equations_get_polynomial_currents(monkeypatch):
    # for polynomial f and g (the reference equations among them), the
    # momentum and H1 currents have a polynomial Phi, and their
    # characteristic check is an exact zero
    verdicts = []
    monkeypatch.setattr(conslaw, "is_zero", lambda e, policy=None: verdicts.append(is_zero(e, policy)) or verdicts[-1])
    checked = 0
    for f, g in POLYNOMIAL_GOLDEN:
        eq = EquationSpec.from_strings(f, g)
        for cur in classify(eq, POL).fluxes:
            if cur.name in ("momentum", "h1"):
                assert ex.poly_normal_form(cur.Phi) is not None, (f, g, cur.name)
                assert characteristic_check(cur, eq, POL).conserved is True
                assert verdicts[-1].exact and verdicts[-1].residual_max == 0.0, (f, g, cur.name)
                checked += 1
    assert checked >= 10


CURRENT_EQUATIONS = GOLDEN_EQUATIONS + [(f, "u") for f in POWER_FAMILY] + [H1_POLE]


def _sympy_residual(sp, cur: dict, f: str, g: str):
    """D_t T + D_x Phi - Q*(m_t + f*m + D_x(g*m)) by sympy, from the printed strings, with u = u(x, t)."""
    x, t = sp.symbols("x t")
    u = sp.Function("u")(x, t)
    m = u - u.diff(x, 2)
    names = {"x": x, "u": u, "ux": u.diff(x), "m": m, "ut": u.diff(t), "utx": u.diff(x, t),
             "exp": sp.exp, "ln": sp.log, "sqrt": sp.sqrt, "sin": sp.sin, "cos": sp.cos, "arctanh": sp.atanh}

    def read(source: str):
        # float constants such as 1.1/3 leave residues of 1e-17 unless snapped
        return sp.nsimplify(sp.sympify(source.replace("^", "**"), locals=names), tolerance=1e-12, rational=True)

    T, Phi, Q, f_s, g_s = map(read, (cur["T"], cur["Phi"], cur["Q"], f, g))
    return sp.simplify(T.diff(t) + Phi.diff(x) - Q * (m.diff(t) + f_s * m + (g_s * m).diff(x)))


@pytest.mark.parametrize("f, g", CURRENT_EQUATIONS)
def test_currents_satisfy_the_sympy_characteristic_form(f, g):
    # an oracle that shares no code with the builders or with
    # characteristic_check: the printed current, read back by sympy
    sp = pytest.importorskip("sympy")
    for cur in classify(EquationSpec.from_strings(f, g), SamplingPolicy(seed=42)).fluxes:
        assert _sympy_residual(sp, cur.to_json(), f, g) == 0, cur.name


def test_sympy_characteristic_form_rejects_a_wrong_current():
    sp = pytest.importorskip("sympy")
    cur = flux_momentum(CH).to_json()
    assert _sympy_residual(sp, cur, "ux", "u") == 0
    assert _sympy_residual(sp, dict(cur, Phi=cur["Phi"] + " + 0.001*u"), "ux", "u") != 0
    assert _sympy_residual(sp, cur, "2*ux", "u") != 0


def test_grad_energy_general_flux_on_line_family():
    for mu, nu in ((3.0, 0.0), (0.5, 0.0)):
        cur = flux_grad_energy(SINGULAR, mu, nu)
        assert cur is not None
        assert characteristic_check(cur, SINGULAR, POL).conserved is True


def test_flux_not_constructible():
    # momentum holds for any f1(u^2-ux^2), but ln falls outside the
    # closed-form antiderivative vocabulary
    eq = EquationSpec.from_strings("ux*ln(4+u^2-ux^2)", "u")
    assert check_momentum(eq, POL).conserved is True
    assert flux_momentum(eq) is None


def test_classify_fluxes_all_verify():
    for eq in (CH, DP, NOVIKOV, MCH, SINGULAR, L2FAM):
        rep = classify(eq, POL)
        assert rep.fluxes, f"no flux built for {to_source(eq.f)}, {to_source(eq.g)}"
        for cur in rep.fluxes:
            v = characteristic_check(cur, eq, POL)
            assert v.conserved is True, (cur.name, v.residual_max)


# ---------------------------------------------------------------------------
# characteristic equation and multiplier conditions


SPATIAL_EXAMPLE = dict(
    eq=EquationSpec.from_strings("-2*u*ux", "u^2-3*ux^2"),
    T=parse("0"),
    Phi=parse("(u^3-u*ux^2-(u^2-3*ux^2)*m+utx)^2-(u^2*ux-ux^3+ut)^2"),
    Q=parse("2*u*(ux^2-u^2)+2*(u^2-3*ux^2)*m-2*utx"),
)


def test_purely_spatial_conservation_law():
    cur = ConservedCurrent("spatial", SPATIAL_EXAMPLE["T"], SPATIAL_EXAMPLE["Phi"], SPATIAL_EXAMPLE["Q"])
    v = characteristic_check(cur, SPATIAL_EXAMPLE["eq"], POL)
    assert v.conserved is True


def test_characteristic_check_detects_corruption():
    cur = ConservedCurrent(
        "bad", SPATIAL_EXAMPLE["T"], SPATIAL_EXAMPLE["Phi"] + parse("u"), SPATIAL_EXAMPLE["Q"]
    )
    v = characteristic_check(cur, SPATIAL_EXAMPLE["eq"], POL)
    assert v.conserved is False
    assert v.witness is not None and "u" in v.witness


def test_multiplier_conditions_examples():
    for T, Q, eq in (
        ("m", "1", CH),
        ("ux^2+u^2", "2*u", MCH),
        ("(u-m)^2+2*ux^2+u^2", "2*m", L2FAM),
    ):
        e1, e2 = multiplier_conditions(parse(T), parse(Q), eq)
        assert is_zero(e1, POL).is_zero, (T, Q)
        assert is_zero(e2, POL).is_zero, (T, Q)


def test_multiplier_conditions_reject_wrong_multiplier():
    e1, e2 = multiplier_conditions(parse("m"), parse("u"), CH)
    assert not (is_zero(e1, POL).is_zero and is_zero(e2, POL).is_zero)


def test_current_vocabulary_enforced():
    with pytest.raises(ExprError):
        ConservedCurrent("bad", parse("mx"), parse("0"), parse("1"))
    with pytest.raises(ExprError):
        ConservedCurrent("bad", parse("m"), parse("mt"), parse("1"))
    with pytest.raises(ExprError):
        ConservedCurrent("bad", parse("m"), parse("0"), parse("x"))


def test_upsilon_shape():
    from peakonlaws.expr import jet_vars

    vars_present = {v.name for v in jet_vars(CH.upsilon)}
    assert "mt" in vars_present and "mx" in vars_present


def test_upsilon_is_built_once_per_equation(monkeypatch):
    # two characteristic checks on one equation take D_x(g*m) once
    eq = EquationSpec.from_strings("ux*(u^2-ux^2) + u/(u^2-ux^2)", "u^2 - ux^2")
    cur = flux_momentum(eq)
    gm = ex.mul(eq.bound_g, ex.var("m"))
    taken, real_dx = [], conslaw.d_x
    monkeypatch.setattr(conslaw, "d_x", lambda e: taken.append(e) or real_dx(e))
    for _ in range(2):
        assert characteristic_check(cur, eq, POL).conserved is True
    monkeypatch.undo()
    assert taken.count(gm) == 1 and len(taken) == 3


# ---------------------------------------------------------------------------
# report serialization


def test_report_json():
    rep = classify(SINGULAR, POL)
    doc = json.loads(rep.to_json_str())
    assert doc["momentum"]["conserved"] is False
    assert doc["h1"]["conserved"] is True
    assert doc["grad_energy"]["kind"] == "line"
    assert doc["l2m"]["conserved"] is True
    assert doc["weighted_h2"]["conserved"] is True
    names = {f["name"] for f in doc["fluxes"]}
    assert "l2m" in names
    for f in doc["fluxes"]:
        # flux strings re-parse within the grammar
        parse(f["T"]), parse(f["Phi"]), parse(f["Q"])


POLYNOMIAL_GOLDEN = [(f, g) for f, g in GOLDEN_EQUATIONS
                     if all(ex.poly_normal_form(e) is not None for e in (ex.parse(f), ex.parse(g)))]


@pytest.mark.parametrize("f, g", POLYNOMIAL_GOLDEN)
def test_split_forms_equal_the_fraction_oracle(f, g, fraction_normal_forms):
    # for polynomial f and g, each coefficient's exact form (the weights'
    # forms times the partials' forms, derived as dicts) equals the same
    # sum taken over Fraction: the expansion of conftest, the derivatives
    # of the whole of f and g, and no structural-zero shortcut; every
    # coefficient is odd
    eq = EquationSpec.from_strings(f, g)
    templates = conslaw._templates()
    weights = [w for split in templates.values() for pairs in split.values() for _, w in pairs]
    weight_of = dict(zip(weights, fraction_normal_forms(weights)))
    whole = dict(zip("fg", fraction_normal_forms([eq.bound_f, eq.bound_g])))

    def partial(p: ex.Partial) -> dict:
        form = whole[p.of]
        for symbol in ["u"] * p.i + ["ux"] * p.j:
            form = _fraction_diff(form, symbol)
        return form

    forms = conslaw._split_conditions(eq, POL).forms
    for name, split in templates.items():
        for mono, pairs in split.items():
            got = forms[name, mono]
            assert all(n % 2 == 1 for n, _ in got.values()), (name, mono)
            assert _rational_form(got) == _fraction_sum(_fraction_pmul(weight_of[w], partial(p)) for p, w in pairs)
