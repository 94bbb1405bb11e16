"""The leading-word echelon span solve agrees with the Bareiss reference.

Small random systems over 0-2 parameters: up to four columns on the seven
words of length at most 2 in two loops, so column leads collide often, and
leading coefficients that may be nonconstant, so the fraction-free step
runs.  Targets are combinations of the columns, combinations with one
stray term, random vectors, or carry a word no column has.  Every answer,
`None` for a target outside the span included, must equal that of
`_reference_express`, the one-target Bareiss solve.  hypothesis is
test-only; the module skips where it is missing.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from flopcalc.coeff import ParamRing  # noqa: E402
from flopcalc.flops import _express_in_span  # noqa: E402
from flopcalc.pathalg import Path, parse_presentation  # noqa: E402
from test_flops import _reference_express  # noqa: E402

PRES = parse_presentation("vertices: 0\narrows: a: 0 -> 0, b: 0 -> 0\nrelations:")
ORDER = PRES.order()
WORDS = [Path(PRES.quiver, "0", w) for w in
         [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]]
OUTSIDE = Path(PRES.quiver, "0", (0, 0, 0))  # longer than every column word
RINGS = [ParamRing([]), ParamRing(["t"]), ParamRing(["t", "u"])]


@st.composite
def polys(draw, ring, nonzero=True):
    """Integer coefficients in -3..3 on the monomials of degree <= 1 in each
    parameter, so nonconstant polynomials are common; with `nonzero`, a
    zero draw becomes 1."""
    out = ring.zero()
    monomials = [ring.one()]
    for name in ring.names:
        monomials += [m * ring.var(name) for m in monomials]
    for m in monomials:
        out = out + m * draw(st.integers(-3, 3))
    if nonzero and out.is_zero():
        out = ring.one()
    return out


def combine(columns, coeffs):
    acc = {}
    for (_, terms, _), c in zip(columns, coeffs):
        for p, v in terms.items():
            s = acc[p] + c * v if p in acc else c * v
            if s.is_zero():
                acc.pop(p, None)
            else:
                acc[p] = s
    return acc


@st.composite
def systems(draw):
    ring = draw(st.sampled_from(RINGS))
    columns = []
    for j in range(draw(st.integers(1, 4))):
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4, unique=True))
        terms = {p: draw(polys(ring)) for p in words}
        columns.append(((j,), terms, draw(polys(ring))))
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["span", "stray", "random", "outside"]))
        if kind == "random":
            words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4, unique=True))
            terms = {p: draw(polys(ring)) for p in words}
        else:
            terms = combine(columns, [draw(polys(ring, nonzero=False)) for _ in columns])
            if kind == "stray":
                p = draw(st.sampled_from(WORDS))
                terms[p] = terms[p] + ring.one() if p in terms else ring.one()
                if terms[p].is_zero():
                    del terms[p]
            elif kind == "outside":
                terms[OUTSIDE] = draw(polys(ring))
        targets.append((terms, draw(polys(ring))))
    return targets, columns, ring


def _handmade():
    # col0 leads b*b with t; col1 collides there with 1, so inserting it
    # scales by t; target 0 is col0 + col1, target 1 is the word a alone
    ring = RINGS[1]
    t, one = ring.var("t"), ring.one()
    bb, a, b, e = WORDS[6], WORDS[1], WORDS[2], WORDS[0]
    columns = [((0,), {bb: t, a: one}, one), ((1,), {bb: one, b: t, e: one}, t + one)]
    targets = [({bb: t + one, a: one, b: t, e: one}, one), ({a: one}, one)]
    return targets, columns, ring


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(systems())
@example(_handmade())
def test_echelon_solve_matches_bareiss(system):
    targets, columns, ring = system
    got = _express_in_span(targets, columns, ring, ORDER)
    assert got == [_reference_express(t, columns, ring) for t in targets]
