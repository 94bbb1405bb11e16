"""poly_gcd checked against sympy, an independent implementation.

Both packages are test-only; the module skips where either is missing.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from flopcalc.coeff import MultiPoly, ParamRing, divexact, poly_gcd  # noqa: E402

NAMES = ("t", "u", "v", "w", "x", "y", "z", "s")


def _polys(width, max_terms, max_deg):
    exps = st.tuples(*[st.integers(0, max_deg)] * width)
    nonzero = st.sampled_from([n for n in range(-6, 7) if n])
    coeffs = st.builds(Fraction, nonzero, st.integers(1, 3))
    return st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms)


@st.composite
def planted(draw):
    """(ring, f, g) with f = a*h and g = b*h over 1-8 parameters."""
    width = draw(st.integers(1, 8))
    ring = ParamRing(NAMES[:width])
    h, a, b = (MultiPoly(ring, draw(_polys(width, 3, 2))) for _ in range(3))
    return ring, a * h, b * h


def _to_sympy(p, gens):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, domain=sympy.QQ)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
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
