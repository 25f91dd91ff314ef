"""Exact polynomials with dyadic coefficients: the arithmetic of expr's normal forms.

A polynomial is a dict: monomial -> coefficient.  A monomial is a sorted
tuple of (symbol_name, exponent) pairs, each exponent positive.  A
coefficient is a nonzero dyadic rational n * 2**e, held as the pair of
ints (n, e) with n odd, so equal values are equal pairs.  Every
coefficient a normal form can hold is dyadic: a float is, an integer
exponent or derivative factor is, and so are their sums and products.  A
product is then one int multiply, and a sum one shift and add, with no
gcd; _rational gives a coefficient's value as a Fraction where it leaves
these forms.  Monomial products are kept, per process, in a bounded table.
"""

from __future__ import annotations

from fractions import Fraction

_PolyT = dict

# monomial products met so far: (m1, m2) -> m1 * m2; pure, so kept between
# calls, and emptied when it reaches _MONO_PRODUCTS_KEPT entries (a race
# between threads can lose an entry, never give a wrong one)
_MONO_PRODUCTS: dict = {}
_MONO_PRODUCTS_KEPT = 4096
_UNIT_COEFF = (1, 0)


def _dyadic(x: float) -> tuple | None:
    """A float as a coefficient (n, e), n odd; None for 0."""
    n, d = x.as_integer_ratio()
    if not n:
        return None
    if d > 1:  # a power of 2
        return n, 1 - d.bit_length()
    t = (n & -n).bit_length() - 1
    return n >> t, t


def _rational(c: tuple) -> Fraction:
    """The value of a coefficient (n, e)."""
    n, e = c
    return Fraction(n << e) if e >= 0 else Fraction(n, 1 << -e)


def _mono_product(m1: tuple, m2: tuple) -> tuple:
    """The monomial m1 * m2, through _MONO_PRODUCTS."""
    m = _MONO_PRODUCTS.get((m1, m2))
    if m is None:
        powers = dict(m1)
        for s, k in m2:
            powers[s] = powers.get(s, 0) + k
        m = tuple(sorted(powers.items()))
        if len(_MONO_PRODUCTS) >= _MONO_PRODUCTS_KEPT:
            _MONO_PRODUCTS.clear()
        _MONO_PRODUCTS[m1, m2] = m
    return m


def _pmul(p: _PolyT, q: _PolyT) -> _PolyT:
    """p * q."""
    if len(q) == 1:  # distinct monomials times one stay distinct
        ((m2, (n2, e2)),) = q.items()
        return {_mono_product(m1, m2): (n1 * n2, e1 + e2) for m1, (n1, e1) in p.items()}
    out: _PolyT = {}
    for m1, (n1, e1) in p.items():
        for m2, (n2, e2) in q.items():
            _accumulate(out, _mono_product(m1, m2), (n1 * n2, e1 + e2))  # odd * odd: odd
    return out


def _pdiff(p: _PolyT, symbol: str) -> _PolyT:
    """d/d(symbol) of p; distinct monomials stay distinct."""
    out: _PolyT = {}
    for mono, (n, e) in p.items():
        k = dict(mono).get(symbol, 0)
        if k:
            t = (k & -k).bit_length() - 1
            out[tuple((s, j - (s == symbol)) for s, j in mono if (s, j) != (symbol, 1))] = n * (k >> t), e + t
    return out


def _padd(p: _PolyT, q: _PolyT) -> _PolyT:
    """p + q, in a new dict."""
    out = dict(p)
    for m, c in q.items():
        _accumulate(out, m, c)
    return out


def _accumulate(out: _PolyT, m: tuple, c: tuple):
    """out[m] += c for a nonzero c, dropping the monomial when it cancels."""
    old = out.get(m)
    if old is None:
        out[m] = c
        return
    (n1, e1), (n2, e2) = old, c
    if e1 != e2:  # odd + odd shifted left by e2 - e1 or e1 - e2 > 0: odd
        out[m] = (n1 + (n2 << (e2 - e1)), e1) if e1 < e2 else (n2 + (n1 << (e1 - e2)), e2)
        return
    n = n1 + n2  # odd + odd: even, or 0
    if n:
        t = (n & -n).bit_length() - 1
        out[m] = n >> t, e1 + t
    else:
        del out[m]
