"""The completed dimension checked against two independent counts.

For homogeneous relations the completion changes nothing, so the completed
dimension is the graded normal-word count.  For commutative relations in
two loops x, y it is the length of the local ring at the origin, which
sympy's Groebner bases give as the number of standard monomials of
I + (x, y)^N once N is large.  Both packages are test-only; the module
skips where hypothesis is missing, the sympy tests where sympy is.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from flopcalc.contraction import completed_dimension  # noqa: E402
from flopcalc.ncgb import INFINITE, dimension  # noqa: E402
from flopcalc.pathalg import parse_presentation  # noqa: E402

TWO_LOOPS = "params:\nvertices: 0\narrows: x: 0 -> 0, y: 0 -> 0\nrelations: "


def words(degree):
    out = [""]
    for _ in range(degree):
        out = [w + a for w in out for a in "xy"]
    return out


@st.composite
def homogeneous_presentations(draw):
    """One to three relations, each homogeneous of degree 2 or 3 with
    rational coefficients, and every word of degree 4 killed."""
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        support = words(draw(st.integers(2, 3)))
        chosen = draw(st.lists(st.sampled_from(support), min_size=1, max_size=4, unique=True))
        coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                                  Fraction(-3, 4)])
        relations.append(" + ".join("(%s)*%s" % (draw(coeffs), "*".join(w)) for w in chosen))
    relations += ["*".join(w) for w in words(4)]
    return parse_presentation(TWO_LOOPS + " ; ".join(relations))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(homogeneous_presentations())
def test_homogeneous_completed_dimension_is_the_word_count(pres):
    assert completed_dimension(pres) == dimension(pres)


def local_length(sympy, polys, n):
    """dim k[x, y] / (I + (x, y)^n): the standard monomials of a Groebner basis."""
    x, y = sympy.symbols("x y")
    gens = list(polys) + [x ** i * y ** (n - i) for i in range(n + 1)]
    leads = [sympy.Poly(g, x, y).monoms(order="grevlex")[0]
             for g in sympy.groebner(gens, x, y, order="grevlex").exprs]
    return sum(1 for a in range(n) for b in range(n)
               if not any(a >= la and b >= lb for la, lb in leads))


def commutative_case(sympy, terms_list):
    """The presentation x*y - y*x plus the given relations, and the
    relations as sympy polynomials; terms are (coefficient, a, b) for
    c * x^a * y^b."""
    x, y = sympy.symbols("x y")
    texts = [" + ".join("(%d)*%s" % (c, "*".join("x" * a + "y" * b)) for c, a, b in terms)
             for terms in terms_list]
    polys = [sum(c * x ** a * y ** b for c, a, b in terms) for terms in terms_list]
    return parse_presentation(TWO_LOOPS + " ; ".join(["x*y - y*x"] + texts)), polys


def assert_matches_local_length(sympy, terms_list):
    pres, polys = commutative_case(sympy, terms_list)
    short, long = local_length(sympy, polys, 12), local_length(sympy, polys, 16)
    assert short == long
    assert completed_dimension(pres) == short


def test_hand_cases_match_the_local_length():
    sympy = pytest.importorskip("sympy")
    # x^2 - x, y^2: the point x = 1 is cut off, k[y]/(y^2) remains
    assert_matches_local_length(sympy, [[(1, 2, 0), (-1, 1, 0)], [(1, 0, 2)]])
    # x^2 - y, y^2 - y: y = x^2 and x^4 = x^2, so k[x]/(x^2) at the origin
    assert_matches_local_length(sympy, [[(1, 2, 0), (-1, 0, 1)], [(1, 0, 2), (-1, 0, 1)]])


def random_relation(rng):
    monomials = [(a, b) for a in range(4) for b in range(4) if 1 <= a + b <= 3]
    return [(rng.choice([1, -1, 2, -2, 3]), a, b)
            for a, b in rng.sample(monomials, rng.randint(2, 4))]


def test_random_commutative_relations_match_the_local_length():
    sympy = pytest.importorskip("sympy")
    compared = 0
    for seed in range(20):
        rng = random.Random(seed)
        terms_list = [random_relation(rng), random_relation(rng)]
        pres, polys = commutative_case(sympy, terms_list)
        # an infinite A (a curve through the zero set) has no completed
        # dimension here, even where the local length is finite
        if dimension(pres) == INFINITE:
            continue
        short, long = local_length(sympy, polys, 12), local_length(sympy, polys, 16)
        if short != long:
            continue
        assert completed_dimension(pres) == short, terms_list
        compared += 1
    assert compared >= 15
