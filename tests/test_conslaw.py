import json

import numpy as np
import pytest

from peakonlaws import conslaw
from peakonlaws import expr as ex
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
    grad_energy_conditions,
    multiplier_conditions,
    upsilon,
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


def _record_candidates(monkeypatch) -> list:
    tried = []
    real = conslaw._candidate_verdict

    def recording(conds, samples, mu, nu, rel_tol):
        tried.append((conds, mu, nu, real(conds, samples, mu, nu, rel_tol)))
        return tried[-1][-1]

    monkeypatch.setattr(conslaw, "_candidate_verdict", recording)
    return tried


def test_grad_candidates_match_the_built_residual(monkeypatch, plain_candidate_verdict):
    # each candidate (mu, nu) gets the status, and the exact or sampled
    # path, that is_zero of the residual built as an expression gives
    tried = _record_candidates(monkeypatch)
    for eq in CANDIDATE_EQUATIONS:
        classify(eq, POL)
    assert len(tried) > len(CANDIDATE_EQUATIONS)
    for conds, mu, nu, got in tried:
        want = plain_candidate_verdict(conds, mu, nu, POL)
        assert (got.status, got.exact) == (want.status, want.exact), (mu, nu, got, want)
        if got.status == "zero":
            assert got.residual_max == want.residual_max
    seen = {(v.status, v.exact) for *_, v in tried}
    assert {("zero", True), ("zero", False), ("nonzero", False)} <= seen


def _conditions(A: str, B: str, C: str):
    return tuple(parse(e) for e in (A, B, C))


@pytest.mark.parametrize("A, B", [("u*ux", "ux^3"), ("ux/u^3", "ux^3/u")])
def test_grad_energy_point_off_the_nu_axis(A, B):
    # C = 1.5*A - 0.5*B puts the one solution at (mu, nu) = (0.5, 0.5):
    # polynomial conditions take the exact path, rational ones the vote
    A, B, C = _conditions(A, B, f"1.5*({A})-0.5*({B})")
    sols = conslaw._solve_grad_energy(A, B, C, is_zero(C, POL), POL)
    assert sols.kind == "point"
    assert sols.mu == pytest.approx(0.5, abs=1e-9) and sols.nu == pytest.approx(0.5, abs=1e-9)


def test_grad_energy_scale_covers_cancelling_coefficients():
    # B = 3*A with terms of size 1e12 and C = 0: the solutions are the line
    # mu - 2 + 3*nu = 0, where (mu-2)*a + nu*b cancels to rounding size,
    # about 1e-4; each point judges it against |mu-2|*s_A and |nu|*s_B
    A, B, C = _conditions("1e12*ux/u^3", "3e12*ux/u^3", "0")
    sols = conslaw._solve_grad_energy(A, B, C, is_zero(C, POL), POL)
    assert sols.kind == "line"
    assert sols.contains(2.0, 0.0) and sols.contains(-1.0, 1.0)


def test_solve_grad_energy_reuses_the_fit_samples(monkeypatch):
    # one sample of A, B and C serves the fit and every candidate: no
    # is_zero, no Program but those of A, B and C, and a normal form of
    # each at most once
    for eq in (DP, L2FAM, SINGULAR, CANDIDATE_EQUATIONS[9], CANDIDATE_EQUATIONS[10]):
        A, B, C = grad_energy_conditions(eq)
        vc = is_zero(C, POL)
        sampled, programs, forms = [], [], []
        real_sample, real_program, real_nf = ex.sample, ex.Program, ex.poly_normal_form

        class CountingProgram(real_program):
            def __init__(self, exprs):
                programs.extend(exprs)
                super().__init__(exprs)

        def counting_sample(exprs, policy):
            sampled.append(list(exprs))
            return real_sample(exprs, policy)

        def counting_nf(e):
            forms.append(e)
            return real_nf(e)

        def no_is_zero(e, policy=None):
            raise AssertionError("is_zero called")

        tried = _record_candidates(monkeypatch)
        monkeypatch.setattr(ex, "sample", counting_sample)
        monkeypatch.setattr(ex, "Program", CountingProgram)
        monkeypatch.setattr(ex, "poly_normal_form", counting_nf)
        monkeypatch.setattr(conslaw, "is_zero", no_is_zero)
        conslaw._solve_grad_energy(A, B, C, vc, POL)
        monkeypatch.undo()
        assert tried
        assert len(sampled) == 1 and [e is c for e, c in zip(sampled[0], (A, B, C))] == [True] * 3
        assert all(any(e is c for c in (A, B)) for e in programs)
        assert all(any(e is c for c in (A, B)) for e in forms)
        assert len({id(e) for e in forms}) == len(forms)
    # classify takes the normal form of each condition at most once (a
    # shared constant such as ZERO keeps its own), for its zero test, and
    # the candidates reuse it
    for eq in (L2FAM, CANDIDATE_EQUATIONS[10]):
        forms, conds = [], []
        real_nf = ex.poly_normal_form
        monkeypatch.setattr(ex, "poly_normal_form", lambda e: forms.append(e) or real_nf(e))
        monkeypatch.setattr(conslaw, "grad_energy_conditions", _keep(conslaw.grad_energy_conditions, conds))
        classify(eq, POL)
        monkeypatch.undo()
        assert len(conds) == 1
        assert all(sum(e is c for e in forms) <= 1 for c in conds[0])


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
    real_euler_u, real_is_zero = conslaw.euler_u, conslaw.is_zero
    built, tested = [], []

    def counting_euler_u(e):
        built.append(real_euler_u(e))
        return built[-1]

    def counting_is_zero(e, policy=None):
        tested.append(e)
        return real_is_zero(e, policy)

    monkeypatch.setattr(conslaw, "euler_u", counting_euler_u)
    monkeypatch.setattr(conslaw, "is_zero", counting_is_zero)
    # the momentum/H1 overlap instance: every verdict and both fluxes
    rep = classify(EquationSpec.from_strings("ux*(u^2-ux^2)", "u*(u^2-ux^2)+(u^2-ux^2)"), POL)
    assert rep.momentum.conserved and rep.h1.conserved
    assert len(built) == 3
    for cond in built:
        assert sum(e is cond for e in tested) <= 1


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


def test_h1_pole_family_flux():
    # h0 != 0 branch: f = h0/(2y), g = -h0*u/(2*ux*y) with h0 = 1
    eq = EquationSpec.from_strings(
        "0.5/(u^2-ux^2)", "-0.5*u/(ux*(u^2-ux^2))"
    )
    assert check_h1(eq, POL).conserved is True
    cur = flux_h1(eq)
    assert cur is not None
    assert characteristic_check(cur, eq, POL).conserved is True


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

    vars_present = {v.name for v in jet_vars(upsilon(CH))}
    assert "mt" in vars_present and "mx" in vars_present


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
