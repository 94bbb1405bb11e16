"""The coefficient kernel checked against sympy, an independent implementation.

Products, sums, exact division, RatFunc normalisation, substitution and
poly_gcd over 0-8 parameters.  Both packages are test-only; the module
skips where either is missing.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from flopcalc.coeff import CoeffError, MultiPoly, ParamRing, RatFunc, divexact, poly_gcd  # noqa: E402

NAMES = ("t", "u", "v", "w", "x", "y", "z", "s")
ORACLE = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _polys(width, max_terms, max_deg, min_size=1):
    exps = st.tuples(*[st.integers(0, max_deg)] * width)
    nonzero = st.sampled_from([n for n in range(-6, 7) if n])
    coeffs = st.builds(Fraction, nonzero, st.integers(1, 3))
    return st.dictionaries(exps, coeffs, min_size=min_size, max_size=max_terms)


@st.composite
def planted(draw):
    """(ring, f, g) with f = a*h and g = b*h over 1-8 parameters."""
    width = draw(st.integers(1, 8))
    ring = ParamRing(NAMES[:width])
    h, a, b = (MultiPoly(ring, draw(_polys(width, 3, 2))) for _ in range(3))
    return ring, a * h, b * h


@st.composite
def rings_with(draw, count, min_size=1):
    """(ring, polys) with `count` polynomials over 0-8 parameters."""
    width = draw(st.integers(0, 8))
    ring = ParamRing(NAMES[:width])
    return ring, [MultiPoly(ring, draw(_polys(width, 3, 2, min_size))) for _ in range(count)]


def _to_sympy(p, gens):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ)


def _expr(p, gens):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[g ** e for g, e in zip(gens, exps)])
                for exps, c in p.terms.items()), sympy.Integer(0))


def _from_sympy(expr, ring):
    """The MultiPoly sympy computed, read back through the constructor."""
    gens = sympy.symbols(ring.names)
    if not gens:
        value = sympy.Rational(expr)
        return MultiPoly(ring, {(): Fraction(int(value.p), int(value.q))} if value else {})
    terms = sympy.Poly(sympy.expand(expr), *gens, domain=sympy.QQ).terms()
    return MultiPoly(ring, {e: Fraction(int(c.p), int(c.q)) for e, c in terms if c})


@ORACLE
@given(rings_with(2, min_size=0))
def test_sum_and_product_match_sympy(case):
    ring, (a, b) = case
    gens = sympy.symbols(ring.names)
    sa, sb = _expr(a, gens), _expr(b, gens)
    assert a + b == _from_sympy(sa + sb, ring)
    assert a - b == _from_sympy(sa - sb, ring)
    assert a * b == _from_sympy(sa * sb, ring)


@ORACLE
@given(rings_with(3), st.booleans())
def test_divexact_matches_sympy(case, planted_factor):
    ring, (a, g, r) = case
    f = a * g if planted_factor else a * g + r
    gens = sympy.symbols(ring.names)
    if gens:
        quotient, remainder = sympy.div(_expr(f, gens), _expr(g, gens), *gens, domain=sympy.QQ)
    else:
        quotient, remainder = _expr(f, gens) / _expr(g, gens), 0
    if remainder == 0:
        assert divexact(f, g) == _from_sympy(quotient, ring)
    else:
        with pytest.raises(CoeffError):
            divexact(f, g)


@ORACLE
@given(rings_with(3))
def test_ratfunc_normalisation_matches_sympy(case):
    ring, (num, den, common) = case
    r = RatFunc(num * common, den * common)
    # the same value cast into the ring with the names reversed, where the
    # denominator's leading term can change
    reversed_ring = ParamRing(ring.names[::-1])
    cases = [(r, num, den),
             (RatFunc.coerce(reversed_ring, r), num.cast(reversed_ring), den.cast(reversed_ring))]
    for r, num, den in cases:
        gens = sympy.symbols(r.ring.names)
        got_num, got_den = _expr(r.num, gens), _expr(r.den, gens)
        # the same value, in lowest terms, with a monic denominator
        assert sympy.expand(got_num * _expr(den, gens) - got_den * _expr(num, gens)) == 0
        if gens:
            assert sympy.gcd(got_num, got_den).is_number
            assert sympy.Poly(got_den, *gens).LC(order="grlex") == 1
        else:
            assert got_den == 1


@ORACLE
@given(rings_with(1), st.data())
def test_substitute_matches_sympy(case, data):
    ring, (p,) = case
    gens = sympy.symbols(ring.names)
    mapped = data.draw(st.lists(st.sampled_from(ring.names), unique=True)) if gens else []
    mapping = {n: MultiPoly(ring, data.draw(_polys(len(gens), 2, 2, 0))) for n in mapped}
    want = _expr(p, gens).subs({sympy.Symbol(n): _expr(v, gens) for n, v in mapping.items()},
                               simultaneous=True)
    assert p.substitute(mapping, ring) == _from_sympy(want, ring)


@ORACLE
@given(planted())
def test_poly_gcd_matches_sympy(case):
    ring, f, g = case
    d = poly_gcd(f, g)
    assert divexact(f, d) * d == f
    assert divexact(g, d) * d == g
    gens = sympy.symbols(ring.names)
    quotient, remainder = sympy.gcd(_to_sympy(f, gens), _to_sympy(g, gens)).div(_to_sympy(d, gens))
    assert remainder.is_zero
    assert quotient.is_ground and not quotient.is_zero
