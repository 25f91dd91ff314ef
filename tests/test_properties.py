"""Hypothesis properties of the expression kernel.

The exact normal forms against the Fraction expansion of tests/conftest.py
on random polynomial trees, the printer and parser as inverses, the Euler
operator on total derivatives, to_m_jet as the inverse of to_u_jet, and
mul as a fixed point of its own factors.  Examples are derandomized, so
every run draws the same ones.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from peakonlaws import expr as ex  # noqa: E402
from peakonlaws import poly  # noqa: E402
from peakonlaws.expr import (  # noqa: E402
    Add,
    Const,
    ExprError,
    Mul,
    Param,
    Pow,
    add,
    d_x,
    euler_u,
    fn,
    mul,
    parse,
    poly_normal_form,
    pow_,
    sub,
    to_m_jet,
    to_source,
    to_u_jet,
    var,
)

from conftest import _fraction_normal_forms  # noqa: E402


def _settings(n: int):
    return hypothesis.settings(max_examples=n, deadline=None, derandomize=True, database=None,
                               suppress_health_check=list(hypothesis.HealthCheck))


# constants at both ends of the float range, and values that are not
# short in binary
EXTREME_CONSTANTS = [5e-324, 2.0**-1022, 1.7e308, -1.7e308, 0.1, 1.0 / 3.0, -0.75, 3.0, 1.0, -1.0, 0.0]
SYMBOLS = [var("u"), var("ux"), var("m"), Param("a"), Param("b")]

leaves = st.one_of(st.sampled_from(SYMBOLS), st.sampled_from(EXTREME_CONSTANTS).map(Const),
                   st.floats(allow_nan=False, allow_infinity=False).map(Const))


def _raw(children):
    """Raw nodes, as the constructors would not build them: no folding, no merging."""
    parts = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        parts.map(Add),
        parts.map(Mul),
        st.tuples(children, st.integers(0, 3)).map(lambda t: Pow(t[0], Fraction(t[1]))),
        # t - t: a cancellation the expansion must find
        children.map(lambda t: Add((t, Mul((Const(-1.0), t))))),
        # a negative power, of a constant or not
        st.tuples(children, st.sampled_from([-1, -2])).map(lambda t: Pow(t[0], Fraction(t[1]))),
    )


raw_trees = st.recursive(leaves, _raw, max_leaves=10)


def _constant_negative_power(e: ex.Expr) -> bool:
    """Whether e holds a negative power whose base expands to a constant."""
    for n, _ in ex._nodes([e]):
        if isinstance(n, Pow) and n.exp < 0:
            (form,) = _fraction_normal_forms([n.base])
            if form is not None and set(form) == {()}:
                return True
    return False


@_settings(300)
@hypothesis.given(raw_trees)
def test_normal_form_equals_the_fraction_expansion(e):
    (got,), (want,) = ex.poly_normal_forms([e]), _fraction_normal_forms([e])
    if got is None:
        # one-sided: only a constant to a negative power that is not dyadic
        # leaves the exact path, which then never claims a zero
        assert want is None or _constant_negative_power(e)
        return
    assert all(n % 2 == 1 for n, _ in got.values())  # odd, and so nonzero
    assert {m: poly._rational(c) for m, c in got.items()} == want
    assert list(got) == list(want)


# trees as the constructors build them, over u, ux, m and a parameter,
# with integer and fractional powers and the elementary functions
canonical_leaves = st.one_of(
    st.sampled_from([var("u"), var("ux"), var("m"), Param("a")]),
    st.sampled_from([2.0, -1.0, 0.5, 3.0, -0.25, 1e-05, 0.1]).map(ex.const),
)


def _built(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: add(*ts)),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: mul(*fs)),
        st.tuples(children, children).map(lambda t: sub(*t)),
        st.tuples(children, st.sampled_from([2, 3, -1, -2, Fraction(1, 2), Fraction(3, 2),
                                             Fraction(-1, 2)])).map(lambda t: pow_(*t)),
        st.tuples(st.sampled_from(["exp", "sin", "ln", "sqrt"]), children).map(lambda t: fn(*t)),
    )


def _draw_built(strategy):
    """strategy with the draws that a constructor refuses (a constant power that is not finite) left out."""
    def build(draw):
        try:
            return draw(strategy)
        except ExprError:
            hypothesis.reject()
    return st.composite(lambda draw: build(draw))()


canonical_trees = _draw_built(st.recursive(canonical_leaves, _built, max_leaves=8))


@_settings(200)
@hypothesis.given(canonical_trees)
def test_parse_inverts_to_source(e):
    assert parse(to_source(e), ["a"]) == e


def test_a_constant_stays_outside_a_sum_among_other_factors():
    # parse multiplies a term's factors in one mul, as mul built the
    # printed product: the 2 is not distributed into the sum
    u, ux = var("u"), var("ux")
    e = mul(2.0, add(u, ux), u)
    assert to_source(e) == "2*(u + ux)*u"
    assert parse(to_source(e)) == e
    # alone with the sum, the constant is distributed either way
    assert parse("2*(u + ux)") == mul(2.0, add(u, ux)) == add(mul(2.0, u), mul(2.0, ux))


def test_a_negative_fractional_power_round_trips():
    # in a product, u^(-1/2) prints as a power and (u^(1/2))^-1 as a
    # division, so each parses back to its own tree
    u, ux = var("u"), var("ux")
    a, b = mul(ux, pow_(u, Fraction(-1, 2))), mul(ux, pow_(pow_(u, Fraction(1, 2)), -1))
    assert a != b
    assert (to_source(a), to_source(b)) == ("ux*u^(-1/2)", "ux/u^(1/2)")
    assert parse(to_source(a)) == a and parse(to_source(b)) == b


polynomial_trees = _draw_built(st.recursive(
    st.one_of(st.sampled_from([var("u"), var("ux"), var("m"), var("mx"), Param("a")]),
              st.sampled_from([2.0, -1.0, 0.5, 3.0, 0.1]).map(ex.const)),
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: add(*ts)),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: mul(*fs)),
        st.tuples(children, st.sampled_from([2, 3])).map(lambda t: pow_(*t)),
    ),
    max_leaves=6,
))


@_settings(40)
@hypothesis.given(polynomial_trees)
def test_euler_u_annihilates_a_total_derivative(theta):
    assert poly_normal_form(euler_u(d_x(theta))) == {}


m_jet_trees = _draw_built(st.recursive(
    st.one_of(st.sampled_from([var("u"), var("ux"), var("m"), var("mx"), var("mxx")]),
              st.sampled_from([2.0, -1.0, 0.5, 3.0, 0.1]).map(ex.const)),
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: add(*ts)),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: mul(*fs)),
        st.tuples(children, st.sampled_from([2, 3])).map(lambda t: pow_(*t)),
    ),
    max_leaves=6,
))


@_settings(100)
@hypothesis.given(m_jet_trees)
def test_to_m_jet_inverts_to_u_jet(e):
    # m, mx and mxx go to u-jets up to uxxxx, and back
    assert poly_normal_form(sub(to_m_jet(to_u_jet(e)), e)) == {}


# factors as the constructors build them, with powers of powers whose
# merged exponents pow_ folds, and raw nodes the constructors would not build
factor_trees = st.one_of(
    canonical_trees,
    st.sampled_from([var("u"), var("ux")]).flatmap(lambda b: st.sampled_from([
        pow_(pow_(b, 2), Fraction(1, 2)), pow_(mul(b, var("m")), Fraction(1, 2)), Pow(b, Fraction(1)),
        Pow(ex.const(2.0), Fraction(2)), Mul((ex.const(3.0), mul(b, var("m")))), Mul((b,)), Add((b,)),
    ])),
)


@_settings(150)
@hypothesis.given(st.lists(st.one_of(factor_trees, st.sampled_from([0.5, 2.0, -1.0])), min_size=1, max_size=5))
def test_mul_is_a_fixed_point_of_its_factors(fs):
    product = mul(*fs)
    if isinstance(product, Mul):
        assert mul(*product.factors) == product
