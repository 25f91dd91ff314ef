import copy
import importlib
import math
import operator
import pickle
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from peakonlaws import conslaw, expr, poly
from peakonlaws.conslaw import EquationSpec, classify, upsilon
from peakonlaws.expr import (
    Add,
    ExprError,
    Fn,
    JetVar,
    Mul,
    Param,
    ParseError,
    Pow,
    SamplingPolicy,
    SingularSamplingError,
    add,
    compile_terms,
    const,
    d_t,
    d_x,
    diff,
    euler_u,
    euler_ut,
    evaluate,
    evaluate_with_scale,
    fn,
    is_zero,
    jet_vars,
    mul,
    param_names,
    parse,
    poly_normal_form,
    pow_,
    sample_points,
    sub,
    to_m_jet,
    to_source,
    to_u_jet,
    var,
)
from test_conslaw import GOLDEN_EQUATIONS


def zdiff(a, b, seed=0):
    return is_zero(sub(a, b), SamplingPolicy(seed=seed))


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_single_token():
    e = parse("ux")
    assert jet_vars(e) == {JetVar("u", 1)}


def test_parse_h1_density_structure():
    e = parse("u^2 - ux^2")
    p = evaluate(e, {"u": 3.0, "ux": 2.0})
    assert p == 5.0


def test_parse_with_param():
    e = parse("a*ux/u^3", ["a"])
    v = evaluate(e, {"a": 2.0, "u": 2.0, "ux": 4.0})
    assert v == 1.0


def test_parse_rational_exponent():
    e = parse("(u^2-ux^2)^(1/2)")
    assert evaluate(e, {"u": 5.0, "ux": 4.0}) == 3.0
    e = parse("u^(-3/2)")
    assert evaluate(e, {"u": 4.0}) == 0.125


def test_parse_functions():
    e = parse("ln((u-ux)/(u+ux)) + exp(0) + sqrt(u^2)")
    v = evaluate(e, {"u": 2.0, "ux": 1.0})
    assert v == pytest.approx(math.log(1.0 / 3.0) + 1.0 + 2.0)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("u + * ux")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("u + qq")
    with pytest.raises(ParseError):
        parse("u^(1/0)")
    with pytest.raises(ParseError):
        parse("u^ux")
    with pytest.raises(ParseError):
        parse("(u + ux")


def test_undeclared_param_rejected():
    with pytest.raises(ParseError):
        parse("a*ux")  # 'a' not declared


def test_print_round_trip_structural():
    sources = [
        "u^2 - ux^2",
        "a*ux/u^3",
        "2*u*ux + m*(u - m)",
        "ln((u-ux)/(u+ux)) + 0.5*x",
        "(u^2-ux^2)^(3/2) - arctanh(ux/2)",
        "-u - 3*ux^2",
    ]
    for src in sources:
        e = parse(src, ["a"])
        printed = to_source(e)
        again = parse(printed, ["a"])
        assert to_source(again) == printed
        pt = {"u": 1.3, "ux": 0.4, "m": -0.7, "x": 0.2, "a": 1.9}
        assert evaluate(again, pt) == evaluate(e, pt)


# ---------------------------------------------------------------------------
# derivatives


def test_dx_examples():
    assert zdiff(d_x(parse("u^2")), parse("2*u*ux")).is_zero
    assert zdiff(d_x(parse("ux")), parse("u - m")).is_zero
    assert zdiff(d_x(parse("u*ux")), parse("ux^2 + u*(u-m)")).is_zero


def test_dx_of_independents():
    assert to_source(d_x(parse("x"))) == "1"
    assert to_source(d_x(parse("t"))) == "0"


def test_dx_of_non_canonical_input(plain_derive):
    # d_x takes u^(k+1) into the m-jet chart, so it commutes with to_m_jet
    for name in ("uxx", "uxxx", "utxx"):
        e = var(name)
        v = is_zero(sub(d_x(e), d_x(to_m_jet(e))))
        assert v.is_zero and v.exact, name
        e = mul(e, parse("u^2 + x*ux"))
        v = is_zero(sub(to_m_jet(d_x(e)), d_x(to_m_jet(e))))
        assert v.is_zero and v.exact, name
    assert to_source(d_x(var("uxx"))) == "ux - mx"
    assert to_source(d_x(var("uxxx"))) == "u - m - mxx"

    # canonical input: the chart's own rule, unchanged
    def canonical_rule(v):
        if v.base in ("x", "t"):
            return const(1.0 if v.base == "x" else 0.0)
        if v.base == "u":
            assert v.dx <= 1
            if v.dx == 0:
                return var(JetVar("u", 1, v.dt))
            return sub(var(JetVar("u", 0, v.dt)), var(JetVar("m", 0, v.dt)))
        return var(JetVar("m", v.dx + 1, v.dt))

    for src in ("u*ux^2 + m*mx/u", "ut*utx - mt*x", "sqrt(u^2 - ux^2)*mxx + t"):
        e = parse(src)
        assert d_x(e) == plain_derive(e, canonical_rule)


def test_dt_examples():
    assert zdiff(d_t(parse("ux^2 + u^2")), parse("2*ux*utx + 2*u*ut")).is_zero
    assert zdiff(d_t(parse("m")), parse("mt")).is_zero
    assert zdiff(d_t(parse("m^2")), parse("2*m*mt")).is_zero


def test_dt_rejects_t_order_one():
    with pytest.raises(ExprError):
        d_t(parse("ut"))
    with pytest.raises(ExprError):
        d_t(parse("mt*u"))


def test_jet_conversions():
    m = parse("m")
    u_form = to_u_jet(m)
    assert {v.name for v in jet_vars(u_form)} == {"u", "uxx"}
    back = to_m_jet(var("uxxx"))
    assert zdiff(back, parse("ux - mx")).is_zero
    e = parse("ux*m")
    assert zdiff(to_m_jet(to_u_jet(e)), e).is_zero


def test_euler_examples():
    assert zdiff(euler_u(parse("u^2")), parse("2*u")).is_zero
    assert euler_u(d_x(parse("u*ux"))) == const(0.0)
    # brute-force oracle: ux*m equals D_x(u^2/2 - ux^2/2) in the u-jet
    target = d_x(sub(mul(0.5, parse("u^2")), mul(0.5, parse("ux^2"))))
    assert poly_normal_form(sub(parse("ux*m"), target)) == {}
    assert is_zero(euler_u(parse("ux*m"))).is_zero
    v = is_zero(euler_u(parse("u*ux*m")))
    assert v.status == "nonzero" and v.witness is not None


def test_euler_ut():
    # m_t = u_t - u_txx in the u-jet, so E_ut(m_t) = 1
    assert zdiff(euler_ut(parse("mt")), parse("1")).is_zero
    # E_ut(D_t(ux^2+u^2)) = 2m
    assert zdiff(euler_ut(d_t(parse("ux^2+u^2"))), parse("2*m")).is_zero


def test_euler_kernel_on_random_polynomials():
    rng = np.random.default_rng(7)
    x, u, ux = parse("x"), parse("u"), parse("ux")
    for trial in range(25):
        terms = []
        for _ in range(6):
            a, b, c = (int(v) for v in rng.integers(0, 5, 3))
            if a + b + c > 4:
                continue
            coeff = float(rng.uniform(-2.0, 2.0))
            terms.append(mul(coeff, pow_(x, a), pow_(u, b), pow_(ux, c)))
        theta = add(*terms)
        v = is_zero(euler_u(d_x(theta)), SamplingPolicy(seed=trial))
        assert v.is_zero, f"kernel property failed at trial {trial}: {v}"


def _random_expr(rng, vars_pool, depth=3):
    if depth == 0 or rng.uniform() < 0.3:
        if rng.uniform() < 0.25:
            return const(float(rng.uniform(-2, 2)))
        return var(vars_pool[rng.integers(0, len(vars_pool))])
    op = rng.integers(0, 3)
    a = _random_expr(rng, vars_pool, depth - 1)
    b = _random_expr(rng, vars_pool, depth - 1)
    return (add(a, b), sub(a, b), mul(a, b))[op]


def test_commutation_dx_dt():
    rng = np.random.default_rng(11)
    pool = ["u", "ux", "m", "mx", "mxx", "x"]
    for trial in range(20):
        e = _random_expr(rng, pool)
        v = zdiff(d_x(d_t(e)), d_t(d_x(e)), seed=trial)
        assert v.is_zero, f"commutation failed: {to_source(e)}"


def test_m_jet_round_trip_random():
    rng = np.random.default_rng(13)
    pool = ["u", "ux", "m", "mx", "mxx"]
    for trial in range(20):
        e = _random_expr(rng, pool)
        assert zdiff(to_m_jet(to_u_jet(e)), e, seed=trial).is_zero


def test_euler_linearity():
    rng = np.random.default_rng(17)
    pool = ["u", "ux", "m", "mx"]
    for trial in range(10):
        e1 = _random_expr(rng, pool)
        e2 = _random_expr(rng, pool)
        a, b = rng.uniform(-2, 2, 2)
        lhs = euler_u(add(mul(float(a), e1), mul(float(b), e2)))
        rhs = add(mul(float(a), euler_u(e1)), mul(float(b), euler_u(e2)))
        assert zdiff(lhs, rhs, seed=trial).is_zero


# ---------------------------------------------------------------------------
# evaluation and zero testing


def test_evaluation_determinism():
    e = parse("u*ux - m^2 + sqrt(u^2)")
    v1 = is_zero(e, SamplingPolicy(seed=5))
    v2 = is_zero(e, SamplingPolicy(seed=5))
    assert v1.residual_max == v2.residual_max
    assert v1.witness == v2.witness


def test_scale_tracks_cancellation():
    # exp(ln(u)) = u numerically but not structurally, so the huge terms
    # survive to evaluation and must show up in the cancellation scale
    big = 1e14
    e = add(mul(big, parse("u")), parse("ux"), mul(-big, fn("exp", fn("ln", parse("u")))))
    val, scale = evaluate_with_scale(e, {"u": 1.5, "ux": 0.4})
    assert scale >= big
    assert abs(val - 0.4) < 1e-1


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9])
def test_median_equals_numpy_median_bit_for_bit(n):
    # conslaw's power fit takes its medians so, without numpy.ma; odd and
    # even lengths, ties, signed zeros, infinities and NaN
    rng = np.random.default_rng(n)
    pools = [rng.normal(size=64), np.array([-0.0, 0.0]), np.array([-0.0, 0.0, 1.0, -1.0]),
             np.array([1.7e308, -1.7e308, 1.7e308]), np.array([np.nan, 1.0, -0.0, np.inf, -np.inf])]
    for pool in pools:
        for _ in range(200):
            a = rng.choice(pool, size=n)
            with np.errstate(all="ignore"):
                got, want = expr._median(a), np.median(a)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), a


def test_evaluate_never_raises():
    # fsum raises on inf - inf and on an intermediate overflow; the plain
    # sum is NaN or inf there, and finite sums keep fsum's bits.  An
    # overflow warns nowhere, so nothing raises under "error" warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = parse("exp(u) - exp(2*u)")
        assert math.isnan(evaluate(e, {"u": 800.0}))
        value, scale = evaluate_with_scale(e, {"u": 800.0})
        assert math.isnan(value) and scale == math.inf
        big = parse("1e308*u + 1e308*ux - 1e308*m")
        ones = {"u": 1.0, "ux": 1.0, "m": 1.0}
        with pytest.raises(OverflowError):
            math.fsum(compile_terms(big)(ones))
        assert evaluate(big, ones) == evaluate_with_scale(big, ones)[0] == math.inf
        assert evaluate(parse("1e308*u + ux"), {"u": 800.0, "ux": 1.0}) == math.inf
        cancelling = parse("1e16*u + ux - 1e16*m")
        assert evaluate(cancelling, ones) == 1.0
        at = {"u": np.array([800.0, 1.0]), "ux": np.array([1.0, 1.0]), "m": np.array([1.0, 1.0])}
        assert np.isnan(evaluate(e, at)[0]) and evaluate(big, at)[1] == math.inf
        assert evaluate(cancelling, at)[1] == 1.0
        # a candidate where 1e308*u overflows (|u| > 1.79...) is rejected:
        # the points are those of the same seeded stream where it is finite
        policy = SamplingPolicy(seed=0)
        got = expr.sample([parse("1e308*u + ux")], policy)
        plain = expr.sample([parse("u + ux")], SamplingPolicy(seed=0, n_points=3 * policy.n_points))
        kept = np.array([p for p in plain.points if math.isfinite(1e308 * float(p[0]))])
        assert len(kept) < len(plain.points)
        assert np.array_equal(got.points, kept[:policy.n_points]) and np.isfinite(got.values).all()


@pytest.mark.parametrize("source", [
    "u^2*ux - 1/u + ux^-3", "exp(u) - exp(2*u)", "sqrt(u) + ln(ux) + 3", "1e16*u + ux - 1e16*u^2", "u + a", "2.5",
])
def test_evaluate_on_arrays_equals_each_point(source):
    e = parse(source, ["a"])
    rng = np.random.default_rng(6)
    at = {"u": np.array([0.0, -1.0, 800.0, *rng.uniform(-2.0, 2.0, 9)]),
          "ux": np.array([0.5, 0.0, 1.0, *rng.uniform(-2.0, 2.0, 9)]), "a": 0.3}
    got = evaluate(e, at)
    assert got.shape == (12,) and got.dtype == np.float64
    for j, value in enumerate(got):
        want = evaluate(e, {"u": float(at["u"][j]), "ux": float(at["ux"][j]), "a": 0.3})
        assert type(want) is float
        assert np.array(value).tobytes() == np.array(want).tobytes()


def test_is_zero_exact_path():
    v = is_zero(sub(parse("(u+ux)^2"), parse("u^2+2*u*ux+ux^2")))
    assert v.is_zero and v.exact


def test_is_zero_trivial_and_witness():
    assert is_zero(sub(parse("u"), parse("u"))).is_zero
    v = is_zero(parse("u^2 - ux^2"))
    assert v.status == "nonzero"
    assert set(v.witness) >= {"u", "ux", "value", "scale"}


@pytest.mark.parametrize("field, value", [
    ("rel_tol", float("nan")), ("rel_tol", float("inf")), ("rel_tol", 0.0), ("rel_tol", -1e-9),
    ("low", float("nan")), ("low", 0.0), ("low", -0.2), ("low", 2.0), ("low", 3.0),
    ("high", float("nan")), ("high", float("inf")), ("high", 0.1),
    ("delta", float("nan")), ("delta", float("inf")), ("delta", -0.1),
    ("n_points", 0), ("n_points", 2.5), ("n_points", True), ("n_points", "20"),
    ("max_tries", 0), ("max_tries", 1.0), ("max_tries", -3),
    ("seed", None), ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "42"),
])
def test_sampling_policy_rejects_bad_values(field, value):
    with pytest.raises(ExprError, match=field):
        SamplingPolicy(**{field: value})


def test_sampling_policy_accepts_edge_values():
    SamplingPolicy(n_points=1, max_tries=1, delta=0.0, low=1e-3, high=1.5e-3, rel_tol=1e-15, seed=0)
    SamplingPolicy(seed=np.int64(7), max_tries=np.int32(3))
    SamplingPolicy(n_points=np.int64(5), low=np.float64(0.5))
    # with a nan tolerance every point voted "nonzero" on this identity
    assert is_zero(parse("exp(u)*exp(ux) - exp(u+ux)"), SamplingPolicy()).is_zero


def test_is_zero_resamples_function_domains():
    # arctanh only defined on |u| < 1: valid points must still be found
    e = sub(fn("arctanh", mul(0.4, parse("u"))), fn("arctanh", mul(0.4, parse("u"))))
    assert is_zero(e).is_zero


def test_singular_sampling_error():
    e = fn("ln", sub(const(-5.0), parse("u^2")))  # log of a negative number everywhere
    with pytest.raises(SingularSamplingError):
        is_zero(e, SamplingPolicy(n_points=5, max_tries=20))


@pytest.mark.parametrize("low", [0.2, 0.01])
def test_sample_points_follow_the_sequential_draw(low):
    # one candidate at a time from the seeded stream: uniform values, then
    # signs; the first n off the singular loci where e is finite are kept.
    # The loci of e are u (ln) and u^2 - ux^2 (the pole), not ux: with
    # low < delta some kept points have |ux| < delta
    e = parse("ln(u) + 1/(u^2-ux^2)")
    policy = SamplingPolicy(n_points=100, seed=3, low=low)
    rng = np.random.default_rng(policy.seed)
    want = []
    while len(want) < policy.n_points:
        vals = rng.uniform(policy.low, policy.high, size=2)
        signs = rng.choice([-1.0, 1.0], size=2)
        u, ux = vals * signs  # names sorted: u, ux
        if min(abs(u), abs(u * u - ux * ux)) < policy.delta:
            continue
        if u <= 0.0:  # ln(u) is not finite
            continue
        want.append((u, ux, math.log(u) + 1.0 / (u * u - ux * ux)))
    got = sample_points(e, policy)
    assert [(p["u"], p["ux"]) for p in got] == [w[:2] for w in want]
    assert [p["__value__"] for p in got] == pytest.approx([w[2] for w in want], rel=1e-13)
    assert any(abs(ux) < policy.delta for _, ux, _ in want) == (low < policy.delta)


LOCI_CASES = [
    ("ux/u^3 + 1/u^2", ["|u|"]),
    ("u^2*ux - 3*ux^3 + 1", []),
    ("exp(u) + sin(ux) + cos(u*ux)", []),
    ("ux + u/(u^2 - ux^2)", ["|u^2 - ux^2|"]),
    # a current of the pole family: a pole at u + ux, a log at (u - ux)/(u + ux)
    ("ln((u - ux)/(u + ux)) + 1/ux", ["|u + ux|", "|(u - ux)/(u + ux)|", "|ux|"]),
    ("sqrt(u^2 + 1) + u^(3/2)", ["|u^2 + 1|", "|u|"]),
    ("arctanh(u/2) - arctanh(u/2)^2", ["||0.5*u| - 1|"]),
    ("1/ux + 1/ux^2 + ux^-3", ["|ux|"]),  # one locus, listed once
    ("ln(2)*u + sqrt(3)", []),  # constant loci are left out
    ("a/(u - b) + 1/m", ["|u - b|", "|m|"]),
]


@pytest.mark.parametrize("source, loci", LOCI_CASES)
def test_singular_loci_read_off_the_expression(source, loci):
    e = parse(source, ["a", "b"])
    assert [str(locus) for locus in expr.singular_loci([e])] == loci
    # the loci of several expressions are those of their sum, each once
    assert expr.singular_loci([e, e, parse("u*ux")]) == expr.singular_loci([e])


def test_locus_distance():
    at = np.array([0.95, -1.02, 0.0, -0.5])
    assert np.array_equal(expr.Locus(parse("u"), "zero").distance(at), np.abs(at))
    assert np.allclose(expr.Locus(parse("u"), "unit").distance(at), [0.05, 0.02, 1.0, 0.5], rtol=0, atol=1e-15)


def test_sample_keeps_off_only_the_loci_of_its_expressions():
    # no pole of CH's f and g lies on u^2 = ux^2, so nothing keeps the
    # sample off it; a pole family's f keeps it delta away
    policy = SamplingPolicy(n_points=200, seed=5)
    ch = expr.sample([parse("ux"), parse("u")], policy)
    y = ch.points[:, 0] ** 2 - ch.points[:, 1] ** 2
    assert ch.names == ["u", "ux"] and (np.abs(y) < policy.delta).any()
    pole = expr.sample([parse("ux + u/(u^2 - ux^2)"), parse("u")], policy)
    assert np.abs(pole.points[:, 0] ** 2 - pole.points[:, 1] ** 2).min() >= policy.delta


@pytest.mark.parametrize("source, outside", [
    ("ln(u)", (0.0, -1.5)),
    ("sqrt(u)", (-1e-3, -2.0)),
    ("arctanh(u)", (1.0, -1.0, 1.5)),
    ("1/u", (0.0,)),
    ("exp(-1/u^2)", (0.0,)),  # NaN, not exp(-inf) = 0
])
def test_domain_violations_are_nan(source, outside):
    e = parse(source)
    grid = np.array([0.5, *outside])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        on_grid = compile_terms(e)({"u": grid})[0]
        at_points = [evaluate(e, {"u": u}) for u in grid]
    assert on_grid[0] == at_points[0] and math.isfinite(at_points[0])
    assert np.isnan(on_grid[1:]).all()
    assert all(math.isnan(v) for v in at_points[1:])


def test_sampling_respects_exclusion_zones():
    e = parse("1/(u^2 - ux^2) + 1/u + 1/ux")
    pts = sample_points(e, SamplingPolicy(n_points=50, seed=1))
    for p in pts:
        assert abs(p["u"]) >= 0.1
        assert abs(p["ux"]) >= 0.1
        assert abs(p["u"] ** 2 - p["ux"] ** 2) >= 0.1


# ---------------------------------------------------------------------------
# jet variables and caps


def test_jetvar_names():
    assert JetVar.from_name("mtxx") == JetVar("m", 2, 1)
    assert JetVar("u", 1, 1).name == "utx"
    with pytest.raises(ExprError):
        JetVar.from_name("mxxxxx")  # beyond the x-derivative cap
    with pytest.raises(ExprError):
        JetVar("m", 0, 2)


def test_partial_derivative():
    e = parse("u^2*ux + m*ux")
    assert zdiff(diff(e, "ux"), parse("u^2 + m")).is_zero
    assert zdiff(diff(e, "u"), parse("2*u*ux")).is_zero


# ---------------------------------------------------------------------------
# node identity: hashing, equality and shared subtrees


def test_hash_and_equality_contract():
    source = "ux*(u^2-ux^2)^2 + u/(u^2-ux^2) + sqrt(u^2+1)*exp(-mx) - ln(u)*mxx"
    a, b = parse(source), parse(source)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert const(0.0) == const(-0.0) and hash(const(0.0)) == hash(const(-0.0))
    # hash(-1.0) == hash(-2.0): equal hashes fall back to the fields
    assert hash(const(-1.0)) == hash(const(-2.0)) and const(-1.0) != const(-2.0)
    u, ux = var("u"), var("ux")
    assert Pow(u, Fraction(2)) != Pow(u, Fraction(3))
    assert Pow(u, Fraction(2)) == Pow(u, 2)
    assert Fn("sin", u) != Fn("cos", u)
    assert Add((u, ux)) != Add((ux, u))
    assert Mul((u, ux)) != Mul((ux, u))
    assert Add((u, ux)) != Mul((u, ux))
    assert a != 1.0 and const(1.0) != 1.0
    # a pickled node is rebuilt from its fields, without its compiled closure
    compile_terms(a)
    c = pickle.loads(pickle.dumps(a))
    assert c == a and hash(c) == hash(a)
    point = {"u": 1.5, "ux": 0.5, "mx": 0.2, "mxx": 0.1}
    assert evaluate(c, point) == evaluate(a, point)


NODE_KINDS = {
    "Const": const(2.5),
    "Param": parse("a*u", ["a"]).factors[0],
    "Var": var("ux"),
    "Partial": expr.Partial("g", 1, 2),
    "Add": parse("u + ux"),
    "Mul": parse("u*ux*m"),
    "Pow": parse("(u^2 - ux^2)^(-3/2)"),
    "Fn": parse("arctanh(u*ux)"),
}


def test_node_kinds_cover_every_node_class():
    assert {type(n).__name__ for n in NODE_KINDS.values()} == set(NODE_KINDS) == {
        c.__name__ for c in vars(expr).values() if isinstance(c, type) and issubclass(c, expr.Expr) and c is not expr.Expr}


@pytest.mark.parametrize("kind", sorted(NODE_KINDS))
def test_node_round_trips_with_its_hash(kind):
    # a slotted node is rebuilt from its fields by pickle, copy and
    # deepcopy, and hashes its fields as a tuple does
    node = NODE_KINDS[kind]
    assert not hasattr(node, "__dict__")
    assert hash(node) == hash(node._fields())
    for again in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
        assert type(again) is type(node) and again == node and hash(again) == hash(node)
        assert again._fields() == node._fields()
    assert const(0.0) == const(-0.0) and hash(const(0.0)) == hash(const(-0.0)) == hash(const(0.0)._fields())


def _distinct_nodes(e) -> int:
    seen, stack = set(), [e]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            stack.extend(expr._children(n))
    return len(seen)


def test_shared_subtrees_are_visited_once(monkeypatch):
    # each level holds the previous one twice: 2^40 nodes as a tree, 83
    # distinct ones; a walk per parent would not finish
    e = add(var("m"), var("ux"))
    for _ in range(40):
        e = add(e, fn("sin", e))
    distinct = _distinct_nodes(e)
    assert distinct == 83
    visits = 0
    children = expr._children

    def counted(n):
        nonlocal visits
        visits += 1
        return children(n)

    monkeypatch.setattr(expr, "_children", counted)
    for op in (jet_vars, param_names, compile_terms, d_x, to_u_jet):
        visits = 0
        op(e)
        assert visits <= 2 * distinct, op.__name__
    assert jet_vars(e) == {JetVar("m"), JetVar("u", 1)}


# the 7 reference equations of the verdicts, then family members
# f = ux*f1(u^2-ux^2) + u/(u^2-ux^2) [+ 0.001*u] with the pole term
TRAVERSAL_EQUATIONS = [
    ("ux", "u"),
    ("2*ux", "u"),
    ("u*ux", "u^2"),
    ("0", "u^2-ux^2"),
    ("ux/u^3", "1/u^2"),
    ("-u*ux", "u^2"),
    ("ux*(u^2-ux^2)", "u*(u^2-ux^2)+(u^2-ux^2)"),
    ("ux*(0.7 - 1.3*(u^2-ux^2)) + u/(u^2-ux^2)", "exp(u)"),
    ("ux*(0.4 + 1.1*(u^2-ux^2)^2) + u/(u^2-ux^2) + 0.001*u", "sqrt(u^2+1)"),
    ("-0.9*ux + u/(u^2-ux^2)", "1/u^2"),
    ("ux*(1.7*(u^2-ux^2) - 0.2) + u/(u^2-ux^2)", "u^2-ux^2"),
]


def _determining_products(f, g) -> tuple:
    """The arguments of euler_u in the momentum, H1 and m^2 conditions of f, g."""
    f, g = parse(f), parse(g)
    m, u, ux = var("m"), var("u"), var("ux")
    return (mul(f, m), mul(sub(mul(u, f), mul(ux, g)), m),
            mul(add(f, mul(0.5, d_x(g))), pow_(m, 2)))


def _traversal_results(f, g) -> list:
    """d_x, d_t, euler_u, to_u_jet and to_m_jet of the determining products of f, g."""
    out = []
    for e in _determining_products(f, g):
        condition = euler_u(e)
        u_jet = to_u_jet(condition)
        out += [d_x(e), d_t(e), condition, d_x(condition), u_jet, to_m_jet(u_jet)]
    return out


@pytest.mark.parametrize("f, g", TRAVERSAL_EQUATIONS)
def test_traversals_match_plain_recursion(f, g, plain_derive, plain_substitute, monkeypatch):
    got = _traversal_results(f, g)
    monkeypatch.setattr(expr, "_derive", plain_derive)
    monkeypatch.setattr(expr, "substitute", plain_substitute)
    want = _traversal_results(f, g)
    for a, b in zip(got, want, strict=True):
        assert a == b and hash(a) == hash(b)
        assert to_source(a) == to_source(b)


# ---------------------------------------------------------------------------
# placeholder partials of an unknown f(u, ux)


def test_partial_placeholder_rules():
    P = expr.Partial
    F = P("f", 1, 2)
    assert diff(F, "u") == P("f", 2, 2) and diff(F, "ux") == P("f", 1, 3)
    assert diff(F, "m") == const(0.0) and diff(F, "x") == const(0.0)
    # the chain rule through u and ux: D_x u = ux, D_x ux = u - m
    want = add(mul(var("ux"), P("f", 2, 2)), mul(sub(var("u"), var("m")), P("f", 1, 3)))
    assert poly_normal_form(sub(d_x(F), want)) == {}
    assert poly_normal_form(sub(d_t(F), add(mul(var("ut"), P("f", 2, 2)), mul(var("utx"), P("f", 1, 3))))) == {}
    assert poly_normal_form(mul(2, F, var("u"))) == {(("f_12", 1), ("u", 1)): (1, 1)}  # 2 = 1 * 2**1
    assert jet_vars(mul(F, var("m"))) == {JetVar("m")}
    # the same placeholder is one node, f and g are not
    assert mul(F, P("f", 1, 2)) == pow_(F, 2) and add(F, P("g", 1, 2)) != mul(2, F)


def test_partial_placeholders_never_evaluate_print_or_parse():
    e = add(var("u"), mul(var("ux"), expr.Partial("g", 0, 1)))
    with pytest.raises(ExprError):
        compile_terms(e)
    with pytest.raises(ExprError):
        to_source(e)
    with pytest.raises(ExprError):
        is_zero(e)
    with pytest.raises(ParseError):
        parse("g_01")


# ---------------------------------------------------------------------------
# the Euler operators in the m-jet chart


def _assert_same_euler(e, plain_euler):
    """euler_u and euler_ut of e equal the u-jet round trip; exactly when polynomial."""
    for got, base_dt in ((euler_u(e), 0), (euler_ut(e), 1)):
        assert all(v.is_canonical for v in jet_vars(got))
        difference = sub(got, plain_euler(e, base_dt))
        v = is_zero(difference)
        assert v.is_zero, (to_source(e), base_dt, v)
        if poly_normal_form(difference) is not None:
            assert v.exact, (to_source(e), base_dt)


@pytest.mark.parametrize("f, g", TRAVERSAL_EQUATIONS)
def test_euler_equals_u_jet_round_trip(f, g, plain_euler):
    for e in _determining_products(f, g):
        _assert_same_euler(e, plain_euler)


@pytest.mark.parametrize("f, g", [("ux", "u"), ("2*ux", "u"), ("ux/u^3", "1/u^2")])
def test_multiplier_euler_equals_u_jet_round_trip(f, g, plain_euler):
    # the argument of multiplier_conditions for every current classify builds
    eq = EquationSpec.from_strings(f, g)
    fluxes = classify(eq).fluxes
    assert fluxes
    for cur in fluxes:
        _assert_same_euler(sub(d_t(cur.T), mul(cur.Q, upsilon(eq))), plain_euler)


def test_euler_of_non_canonical_input(plain_euler):
    u, ux, uxx, uxxx = (var(n) for n in ("u", "ux", "uxx", "uxxx"))
    e = add(mul(uxx, uxxx, ux), mul(u, pow_(uxx, 3)), mul(var("mx"), uxxx),
            mul(var("utxx"), uxx, u), mul(var("ut"), uxxx))
    _assert_same_euler(e, plain_euler)


def _sympy_condition(sp, f: str, g: str, which: str):
    """E_u of the momentum or H1 product of f, g, by sympy in u(x), with m = u - u''."""
    from sympy.calculus.euler import euler_equations

    x, u_s, ux_s = sp.symbols("x u_s ux_s")
    u = sp.Function("u")(x)
    f_s, g_s = (
        sp.sympify(src.replace("^", "**"), locals={"u": u_s, "ux": ux_s}).xreplace({u_s: u, ux_s: u.diff(x)})
        for src in (f, g)
    )
    m = u - u.diff(x, 2)
    density = f_s * m if which == "momentum" else (u * f_s - u.diff(x) * g_s) * m
    # no equation when the Euler-Lagrange expression folds to 0 as it is built
    eqs = euler_equations(density, u, x)
    return x, u, eqs[0].lhs if eqs else sp.Integer(0)


@pytest.mark.parametrize("which", ["momentum", "h1"])
@pytest.mark.parametrize("f, g", TRAVERSAL_EQUATIONS[:7])
def test_euler_u_matches_sympy(f, g, which):
    sp = pytest.importorskip("sympy")
    x, u, want = _sympy_condition(sp, f, g, which)
    momentum, h1, _ = _determining_products(f, g)
    got = euler_u(momentum if which == "momentum" else h1)
    rng = np.random.default_rng(2017)
    for _ in range(5):
        d = [float(rng.uniform(0.5, 1.5))] + [float(v) for v in rng.uniform(-1.5, 1.5, 8)]
        at = {u.diff(x, k): d[k] for k in range(1, len(d))}
        at[u] = d[0]
        point = {"u": d[0], "ux": d[1]}
        point.update({"m" + "x" * k: d[k] - d[k + 2] for k in range(5)})
        assert evaluate(got, point) == pytest.approx(float(want.xreplace(at)), rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# one program per set of expressions


def test_program_computes_each_distinct_node_once(monkeypatch):
    calls = 0

    def counted_sin(x):
        nonlocal calls
        calls += 1
        return np.sin(x)

    monkeypatch.setitem(expr._FN_UFUNCS, "sin", counted_sin)
    e = add(var("m"), var("ux"))
    for _ in range(40):
        e = add(e, fn("sin", e))
    assert math.isfinite(evaluate(e, {"m": 0.3, "ux": -0.2}))
    assert calls == 40


def _condition_grid() -> dict:
    # every jet variable of A, B, C on a grid that crosses u = 0 and u = ux
    rng = np.random.default_rng(11)
    u = np.array([0.0, -0.7, 0.7, 1.3, 1e-3, *rng.uniform(-2.0, 2.0, 11)])
    ux = np.array([0.4, -0.7, -0.7, 0.0, 0.2, *rng.uniform(-2.0, 2.0, 11)])
    env = {"u": u, "ux": ux}
    for name in ("m", "mx", "mxx", "mxxx", "mxxxx"):
        env[name] = rng.uniform(-2.0, 2.0, len(u))
    return env


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("f, g", TRAVERSAL_EQUATIONS)
def test_program_equals_plain_evaluation(f, g, plain_terms, full_conditions):
    conditions = full_conditions(EquationSpec.from_strings(f, g))
    env = _condition_grid()
    with np.errstate(all="ignore"):  # the caller of a Program holds it
        together = expr.Program(conditions)(env)
    for c, terms in zip(conditions, together, strict=True):
        want = plain_terms(c, env)
        for got in (terms, compile_terms(c)(env)):
            assert len(got) == len(want)
            assert all(_same_bits(a, b) for a, b in zip(got, want))


def test_negative_powers_share_one_mask():
    e = parse("u^-3 + u^-2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(evaluate(e, {"u": 0.0}))
        assert np.isnan(compile_terms(e)({"u": np.zeros(3)})).all()
    program = expr.Program([e])
    assert sum(step[0] is operator.truediv for step in program._code) == 1


# ---------------------------------------------------------------------------
# the sampler on the programs of its expressions


def test_sample_names_variables_then_parameters():
    e = parse("a*u*mx + ux/b + m", ["b", "a"])
    s = expr.sample([e], SamplingPolicy(n_points=5))
    assert s.names == sorted(v.name for v in jet_vars(e)) + sorted(param_names(e))
    assert s.names == ["m", "mx", "u", "ux", "a", "b"]


def test_sample_values_equal_plain_terms(plain_terms):
    # disjoint symbol sets: each expression reads only its own columns
    e1, e2 = parse("u^2*ux - 1/u + ux^-3"), parse("a*m*mx^3 + mxx/m - 2", ["a"])
    s = expr.sample([e1, e2], SamplingPolicy(n_points=25, seed=4))
    assert s.names == ["m", "mx", "mxx", "u", "ux", "a"]
    env = dict(zip(s.names, s.points.T))
    for e, values, scales in zip((e1, e2), s.values, s.scales, strict=True):
        cols = np.array([np.broadcast_to(t, (25,)) for t in plain_terms(e, env)])
        assert _same_bits(values, np.array([math.fsum(col) for col in cols.T]))
        assert _same_bits(scales, np.array([max(1.0, np.max(np.abs(col))) for col in cols.T]))


def test_sample_builds_one_program_per_call(monkeypatch, full_conditions):
    conditions = full_conditions(EquationSpec.from_strings(*TRAVERSAL_EQUATIONS[7]))
    policy = SamplingPolicy(seed=3)
    built = []

    class CountingProgram(expr.Program):
        def __init__(self, exprs, **kwargs):
            built.append((list(exprs), self))
            super().__init__(exprs, **kwargs)

    monkeypatch.setattr(expr, "Program", CountingProgram)
    for exprs in (conditions, conditions[:1], conditions):
        built.clear()
        s = expr.sample(exprs, policy)
        assert s.values.shape == s.scales.shape == (len(exprs), policy.n_points)
        # the expressions, then a row per singular locus
        loci = expr.singular_loci(exprs)
        assert loci and len(built) == 1 and built[0][1].loci == loci
        assert all(a is b for a, b in zip(built[0][0], exprs, strict=True))


def test_vote_equals_the_point_loop(plain_vote):
    # all zero, all nonzero, split votes, and ties for the largest residual,
    # each row of one block voted at once and one at a time
    rng = np.random.default_rng(8)
    s = expr.sample([parse("u*ux + a", ["a"])], SamplingPolicy(n_points=12, seed=8))
    scales = np.exp(rng.uniform(0.0, 3.0, 12))
    block = np.array([np.zeros(12), 1e-12 * scales, rng.uniform(-1, 1, 12),
                      np.where(np.arange(12) % 3, 1e-13, 0.5) * scales,
                      np.where(np.arange(12) % 4, 0.25, -0.25) * scales])
    batched = expr.vote(s, block, np.tile(scales, (len(block), 1)), 1e-9)
    assert [v.status for v in batched] == ["zero", "zero", "nonzero", "indeterminate", "nonzero"]
    for values, got in zip(block, batched, strict=True):
        want = plain_vote(s.names, s.points, values, scales, 1e-9)
        assert got == want and expr.vote(s, values[None], scales[None], 1e-9) == [want]
        assert got.witness is None or all(type(got.witness[k]) is type(want.witness[k]) for k in want.witness)


def test_sample_stacks_its_rows_in_one_block(plain_vote):
    # rows of 1 (a constant, broadcast to every point), 2 and 5 top-level
    # terms, and a locus |u^2 - ux^2| that rejects some of the candidates
    exprs = [const(2.5), parse("u^2*ux - 1/ux"), parse("u + ux^3 - 2*u*ux + exp(u) + ux/(u^2 - ux^2)")]
    assert [len(e.terms) if isinstance(e, Add) else 1 for e in exprs] == [1, 2, 5]
    policy = SamplingPolicy(n_points=30, seed=6, delta=0.5)
    s = expr.sample(exprs, policy)
    u, ux = s.points.T
    assert np.abs(u * u - ux * ux).min() >= policy.delta
    stream = expr._candidates(policy, 2, policy.n_points, policy.max_tries * policy.n_points)
    assert not _same_bits(s.points, stream[:policy.n_points])  # some candidates were rejected
    # the reference: each row's terms from the Program at the points, one point at a time
    with np.errstate(all="ignore"):
        rows = expr.Program(exprs)(dict(zip(s.names, s.points.T)))
    cols = [np.array([np.broadcast_to(t, (policy.n_points,)) for t in ts]).T for ts in rows]
    assert _same_bits(s.values, np.array([[math.fsum(c) for c in r] for r in cols]))
    assert _same_bits(s.scales, np.array([[max(1.0, *map(abs, c)) for c in r] for r in cols]))
    assert _same_bits(s.values[0], np.full(policy.n_points, 2.5))
    # one vote over a zero, a nonzero and a split row equals a vote per row
    split = np.where(np.arange(policy.n_points) % 2, 0.0, s.values[2])
    values = np.array([1e-12 * s.scales[0], s.values[1], split])
    verdicts = expr.vote(s, values, s.scales, 1e-9)
    assert [v.status for v in verdicts] == ["zero", "nonzero", "indeterminate"]
    for row, got in enumerate(verdicts):
        assert got == plain_vote(s.names, s.points, values[row], s.scales[row], 1e-9)



@pytest.mark.parametrize("source, loci", LOCI_CASES)
def test_program_with_loci_equals_the_program_over_the_loci(source, loci):
    # the locus rows read off the compile walk equal, to the bit, the rows
    # of a Program over the expressions and then their singular_loci
    exprs = [parse(source, ["a", "b"]), parse("ux/(u^2 - ux^2) + ln(u)")]
    program = expr.Program(exprs, with_loci=True)
    listed = expr.singular_loci(exprs)
    assert program.loci == listed and [str(locus) for locus in listed[:len(loci)]] == loci
    env = {**_condition_grid(), "a": 0.5, "b": -1.5}
    with np.errstate(all="ignore"):  # the caller of a Program holds it
        got, want = program(env), expr.Program([*exprs, *(locus.expr for locus in listed)])(env)
    assert len(got) == len(want) == len(exprs) + len(listed)
    for a, b in zip(got, want, strict=True):
        assert len(a) == len(b) and all(_same_bits(x, y) for x, y in zip(a, b))
    assert expr.Program(exprs).loci == []


# ---------------------------------------------------------------------------
# the candidate streams of the sampler


def _fresh_stream(policy: SamplingPolicy, dim: int, count: int) -> np.ndarray:
    """The first count candidates of a new generator: per candidate, uniform values, then signs."""
    rng = np.random.default_rng(policy.seed)
    return np.array([rng.uniform(policy.low, policy.high, size=dim) * rng.choice([-1.0, 1.0], size=dim)
                     for _ in range(count)]).reshape(count, dim)


def test_candidate_streams_equal_a_fresh_draw(monkeypatch):
    # interleaved requests, shorter and longer, over more keys than are
    # kept, each read as one sequential draw of a new generator
    monkeypatch.setattr(expr, "_STREAMS", {})
    rng = np.random.default_rng(0)
    policies = [SamplingPolicy(seed=seed, low=low, n_points=10, max_tries=6)
                for seed in (42, 7, 1299827) for low in (0.2, 0.01)]
    keys = [(policy, dim) for policy in policies for dim in (1, 2, 7)]
    assert len(keys) > expr._STREAMS_KEPT
    budget = 60
    fresh = {(policy, dim): _fresh_stream(policy, dim, budget) for policy, dim in keys}
    for _ in range(300):
        policy, dim = keys[rng.integers(len(keys))]
        stop = int(rng.integers(1, budget + 1))
        drawn = expr._STREAMS.get((policy.seed, policy.low, policy.high, dim), (None, ()))[1]
        got = expr._candidates(policy, dim, stop, budget)
        assert stop <= len(got) <= budget and got.shape[1] == dim
        assert _same_bits(got, fresh[policy, dim][:len(got)])
        assert not got.flags.writeable
        assert len(expr._STREAMS) <= expr._STREAMS_KEPT
        # a stream grows only when it must, and then doubles, or more if the request is longer
        assert len(got) == (len(drawn) if stop <= len(drawn) else min(max(stop, 2 * len(drawn)), budget))


def test_sample_reads_the_stream_of_a_fresh_generator(monkeypatch):
    # sample calls with 1, 2 and 7 symbols and several seeds, interleaved,
    # give the points and values of calls that each start a new stream
    cases = [([parse("u + 1/u")], 1), ([parse("ln(u) + 1/(u^2 - ux^2)")], 2),
             ([parse("a*m*mx + mxx/u + b*ux", ["a", "b"]), parse("m - u")], 7)]
    monkeypatch.setattr(expr, "_STREAMS", {})
    rng = np.random.default_rng(1)
    for _ in range(24):
        exprs, dim = cases[rng.integers(len(cases))]
        policy = SamplingPolicy(seed=int(rng.choice([3, 42, 99])), n_points=int(rng.integers(1, 40)), low=0.05)
        warm = expr.sample(exprs, policy)
        with monkeypatch.context() as fresh:
            fresh.setattr(expr, "_STREAMS", {})
            cold = expr.sample(exprs, policy)
        assert len(warm.names) == dim and warm.names == cold.names
        for a, b in zip(warm[1:], cold[1:], strict=True):
            assert _same_bits(a, b)


def test_sample_points_are_a_copy_of_the_read_only_stream(monkeypatch):
    monkeypatch.setattr(expr, "_STREAMS", {})
    policy, e = SamplingPolicy(seed=11), parse("u + ux")  # every candidate admissible
    s = expr.sample([e], policy)
    (_, stream), = expr._STREAMS.values()
    assert not stream.flags.writeable
    with pytest.raises(ValueError):
        stream[0, 0] = 1.0
    assert s.points.flags.writeable and not np.shares_memory(s.points, stream)
    s.points[:] = 0.0
    assert _same_bits(expr.sample([e], policy).points, stream[:policy.n_points])
    assert _same_bits(stream[:policy.n_points], _fresh_stream(policy, 2, policy.n_points))


def test_singular_sampling_error_counts_its_tries(monkeypatch):
    # the message and its counts are those of the sequential draw, with
    # the stream not yet drawn and drawn already
    monkeypatch.setattr(expr, "_STREAMS", {})
    nowhere = fn("ln", sub(const(-5.0), parse("u^2")))
    policy = SamplingPolicy(n_points=5, max_tries=20)
    half = SamplingPolicy(n_points=20, max_tries=1, seed=3)
    found = int((_fresh_stream(half, 1, 20)[:, 0] > 0).sum())  # ln(u) is finite at u > 0 only
    assert 0 < found < 20
    for _ in range(2):
        with pytest.raises(SingularSamplingError, match=r"^could not find admissible sample points "
                                                        r"\(0 of 5 after 100 tries\)$"):
            is_zero(nowhere, policy)
        with pytest.raises(SingularSamplingError, match=rf"^could not find admissible sample points "
                                                        rf"\({found} of 20 after 20 tries\)$"):
            is_zero(parse("ln(u)"), half)


def test_stream_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(expr, "_STREAMS", {})
    kept = expr._STREAMS_KEPT
    for seed in range(3 * kept):
        expr.sample([parse("u*ux")], SamplingPolicy(seed=seed, n_points=4, max_tries=2))
        assert len(expr._STREAMS) <= kept
    # the streams used last are kept, none longer than its budget
    assert [key[0] for key in expr._STREAMS] == list(range(2 * kept, 3 * kept))
    assert all(len(stream) <= 8 for _, stream in expr._STREAMS.values())


# ---------------------------------------------------------------------------
# add and mul against the constructors that rebuild every term and factor


def _outcome(f, *args):
    try:
        return f(*args)
    except ExprError as err:
        return type(err), str(err)


def _assert_same_expr(got, want):
    assert got == want
    if isinstance(want, expr.Expr):
        assert hash(got) == hash(want)
        assert _outcome(to_source, got) == _outcome(to_source, want)
        assert poly_normal_form(got) == poly_normal_form(want)


def _random_pool(seed: int) -> list:
    """Nodes built by the constructors, and a fifth raw: like terms, repeated bases, non-canonical nodes."""
    rng = random.Random(seed)
    pool = [var("u"), var("ux"), var("m"), Param("a"), const(2.0), const(-1.0), const(0.5)]
    raw = [
        lambda a, b: Mul((a, b)), lambda a, b: Mul((const(1.0), a)), lambda a, b: Mul((a,)),
        lambda a, b: Mul((a, const(3.0), b)), lambda a, b: Mul((const(2.0), Add((a, b)))),
        lambda a, b: Add((a, b)), lambda a, b: Add((a,)), lambda a, b: Pow(a, Fraction(1)),
        lambda a, b: Pow(a, Fraction(0)), lambda a, b: Pow(const(2.0), Fraction(2)),
        # a product whose merged exponent makes pow_ return a power of another base
        lambda a, b: mul(a, pow_(pow_(a, 2), Fraction(1, 2)), pow_(pow_(a, 2), Fraction(1, 2))),
    ]
    made = [
        add, mul, sub, lambda a, b: mul(a, b, a), lambda a, b: add(a, mul(-1.0, b), b),
        lambda a, b: pow_(a, rng.choice([2, -1, Fraction(1, 2), Fraction(-3, 2)])),
        lambda a, b: fn(rng.choice(["exp", "sin"]), a), lambda a, b: mul(rng.choice([2.0, -0.5, 3.0]), a),
    ]
    while len(pool) < 60:
        build = rng.choice(raw if rng.random() < 0.2 else made)
        try:
            pool.append(build(rng.choice(pool), rng.choice(pool)))
        except ExprError:
            pass
    return pool


@pytest.mark.parametrize("seed", range(6))
def test_add_and_mul_equal_the_plain_ones_on_random_trees(seed, plain_add, plain_mul):
    rng = random.Random(1000 + seed)
    pool = _random_pool(seed)
    for _ in range(150):
        args = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:
            args.insert(rng.randint(0, len(args)), rng.choice([0, 1, 2.5, -1.0]))
        for new, plain in ((add, plain_add), (mul, plain_mul)):
            _assert_same_expr(_outcome(new, *args), _outcome(plain, *args))


def test_add_and_mul_equal_the_plain_ones_on_the_golden_equations(monkeypatch, plain_add, plain_mul):
    # every call of add and mul that parsing, the split templates,
    # classify and characteristic_check make on the golden equations
    calls = []

    def recording(new, plain):
        def constructor(*args):
            out = new(*args)
            calls.append((plain, args, out))
            return out
        return constructor

    new_add, new_mul = recording(expr.add, plain_add), recording(expr.mul, plain_mul)
    for module in (expr, conslaw):
        monkeypatch.setattr(module, "add", new_add)
        monkeypatch.setattr(module, "mul", new_mul)
    conslaw._templates.__wrapped__()
    policy = SamplingPolicy(seed=42)
    for f, g in GOLDEN_EQUATIONS:
        eq = EquationSpec.from_strings(f, g)
        for cur in classify(eq, policy).fluxes:
            assert conslaw.characteristic_check(cur, eq, policy).conserved
    monkeypatch.undo()
    assert len(calls) > 1000
    for plain, args, got in calls:
        _assert_same_expr(got, plain(*args))


def test_add_and_mul_return_canonical_input_as_it_came():
    u, ux = var("u"), var("ux")
    square = pow_(ux, 2)
    t1, t2, t3 = mul(2.0, u, square), pow_(u, -1), fn("exp", mul(u, ux))
    s = add(t1, t2, t3, 1.5)
    assert [id(t) for t in s.terms[:3]] == [id(t1), id(t2), id(t3)] and s.terms[3] == const(1.5)
    p = mul(t2, t3, ux)
    assert [id(f) for f in p.factors] == [id(t2), id(t3), id(ux)]
    # only what merges is built anew
    s = add(t1, t2, t1)
    assert s.terms[0] == mul(4.0, u, square) and s.terms[1] is t2
    p = mul(t3, u, square, pow_(u, 2))
    assert p.factors[0] is t3 and p.factors[1] == pow_(u, 3) and p.factors[2] is square


def test_mul_regroups_until_nothing_merges():
    u, ux = var("u"), var("ux")
    h = pow_(pow_(u, 2), Fraction(1, 2))  # (u^2)^(1/2): two of them merge to u^2, whose base is u
    k = pow_(mul(u, ux), Fraction(1, 2))  # two of them merge to the product u*ux
    for factors, want in (((u, h, h), "u^3"), ((k, k, u), "u^2*ux"), ((3.0, Pow(const(2.0), Fraction(2)), u), "12*u")):
        product = mul(*factors)
        assert to_source(product) == want
        assert product == parse(want) and mul(*product.factors if isinstance(product, Mul) else (product,)) == product


# ---------------------------------------------------------------------------
# the exact normal forms against the Fraction expansion


def _assert_forms_equal_as_rationals(got: list, want: list):
    """Each form of got, coefficient (n, e) read as n * 2**e, equals want's, monomials in the same order."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert all(n % 2 == 1 for n, _ in g.values())
        assert {m: poly._rational(c) for m, c in g.items()} == w and list(g) == list(w)


def _verdicts_pass_inputs(monkeypatch, recognized, cases) -> tuple:
    """The inputs of every poly_normal_forms call of one verdicts pass (classify, then
    characteristic_check), and each q the recognizer's exact path accepted, with the
    normal form of w it matched: its form of factor*q(x), built as dicts."""
    calls = []
    real = expr.poly_normal_forms
    monkeypatch.setattr(expr, "poly_normal_forms", lambda exprs: calls.append(list(exprs)) or real(calls[-1]))
    policy = SamplingPolicy(seed=42)
    for f, g in cases:
        eq = EquationSpec.from_strings(f, g)
        for cur in classify(eq, policy).fluxes:
            conslaw.characteristic_check(cur, eq, policy)
    monkeypatch.undo()
    factors = {conslaw._Y: var("ux"), conslaw._U: expr.ONE}
    built = [(factors[arg], rec, expr.poly_normal_form(w)) for w, arg, rec, exact in recognized if exact]
    return calls, built


@pytest.mark.parametrize("seed", [1, 4242])
def test_normal_forms_equal_the_fraction_oracle_on_a_verdicts_pass(seed, monkeypatch, recognized, fraction_normal_forms):
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    cases = [(c.f, c.g) for c in workloads.reference_cases() + workloads.family_cases(seed)]
    calls, built = _verdicts_pass_inputs(monkeypatch, recognized, cases)
    assert len(calls) + len(built) > 300 and built
    for exprs in calls:
        _assert_forms_equal_as_rationals(expr.poly_normal_forms(exprs), fraction_normal_forms(exprs))
    # the recognizer builds the form of factor*q(x) from q's terms as
    # dicts, and compares it with ==, so its monomial order is free
    for factor, rec, form in built:
        (want,) = fraction_normal_forms([mul(factor, rec.expr())])
        _assert_forms_equal_as_rationals([dict(sorted(form.items()))], [dict(sorted(want.items()))])


def test_normal_forms_equal_the_fraction_oracle_on_the_templates(fraction_normal_forms):
    f, g = expr.Partial("f"), expr.Partial("g")
    u, ux, m = var("u"), var("ux"), var("m")
    conditions = [
        euler_u(mul(sub(mul(u, f), mul(ux, g)), m)),
        euler_u(mul(f, m)),
        euler_u(mul(add(f, mul(0.5, d_x(g))), pow_(m, 2))),
    ]
    weights = [w for split in conslaw._templates().values() for pairs in split.values() for _, w in pairs]
    for exprs in (conditions, weights):
        _assert_forms_equal_as_rationals(expr.poly_normal_forms(exprs), fraction_normal_forms(exprs))


def test_dyadic_coefficients_round_trip_floats():
    for x in (5e-324, 2.0**-1022, 1.7e308, -1.7e308, 0.1, 1.0 / 3.0, 3.0, 4.0, -0.75, 2.0**60):
        n, e = poly._dyadic(x)
        assert n % 2 == 1 and poly._rational((n, e)) == Fraction(x) and float(poly._rational((n, e))) == x
    assert poly._dyadic(0.0) is None and poly._dyadic(-0.0) is None


def test_a_constant_to_a_negative_power_is_exact_only_when_dyadic():
    u = var("u")
    # 4^-1 = 1/4 is dyadic, 3^-1 is not: the sampler decides that one
    assert poly_normal_form(Pow(const(4.0), Fraction(-1))) == {(): (1, -2)}
    assert poly_normal_form(Pow(const(-0.5), Fraction(-3))) == {(): (-1, 3)}
    assert poly_normal_form(Pow(const(3.0), Fraction(-1))) is None
    assert poly_normal_form(Mul((u, Pow(const(3.0), Fraction(-1))))) is None
    assert poly_normal_form(Pow(const(3.0), Fraction(0))) == {(): (1, 0)}


def test_monomial_product_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(poly, "_MONO_PRODUCTS", {})
    monkeypatch.setattr(poly, "_MONO_PRODUCTS_KEPT", 8)
    u, ux = var("u"), var("ux")
    for k in range(1, 30):
        assert poly_normal_form(mul(pow_(u, k), add(ux, u))) == {(("u", k), ("ux", 1)): (1, 0), (("u", k + 1),): (1, 0)}
        assert len(poly._MONO_PRODUCTS) <= 8
