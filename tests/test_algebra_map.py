"""`algebra_map` is an algebra homomorphism under the three maps the
derived presentations use: the contraction map, a classifying map on the
parameters, and the central-fibre map."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from flopcalc.catalog import builtins, universal_flopping_algebra  # noqa: E402
from flopcalc.coeff import ParamRing, parse_poly  # noqa: E402
from flopcalc.contraction import contraction_presentation  # noqa: E402
from flopcalc.pathalg import Element, Path, algebra_map, parse_element  # noqa: E402


def _contraction_map():
    pres = builtins()["length-3-nccr"].presentation()
    con = contraction_presentation(pres, "0")
    dropped = {a.name: None for a in pres.quiver.arrows if "0" in (a.source, a.target)}
    return pres, lambda x: algebra_map(x, con.quiver, con.params, dropped)


def _classifying_map():
    pres = universal_flopping_algebra(3).presentation()
    ring = ParamRing(["T"])
    images = {"t": "0", "T0b": "T", "T1b": "0", "T0c": "T", "T1c": "0", "T0d": "T"}
    poly_map = {k: parse_poly(v, ring) for k, v in images.items()}
    return pres, lambda x: algebra_map(x, pres.quiver, ring,
                                       coeff=lambda c: c.substitute(poly_map, ring))


def _central_fibre_map():
    entry = universal_flopping_algebra(2)
    pres, cf = entry.presentation(), entry.central_fibre_presentation()
    assert entry.central_fibre_map == {"d": "-(A*a + b + c)"}
    loops = {"d": parse_element("-(A*a + b + c)", cf.quiver, cf.params)}
    zero_map = {n: cf.params.zero() for n in pres.params.names}
    return pres, lambda x: algebra_map(x, cf.quiver, cf.params, loops,
                                       lambda c: c.substitute(zero_map, cf.params))


MAPS = [_contraction_map(), _classifying_map(), _central_fibre_map()]


@st.composite
def elements(draw, pres):
    quiver = pres.quiver
    out = Element.zero(quiver, pres.params)
    for _ in range(draw(st.integers(0, 4))):
        at = source = draw(st.sampled_from(quiver.vertices))
        word = []
        for _ in range(draw(st.integers(0, 3))):
            a = draw(st.sampled_from([a for a in quiver.arrows if a.source == at]))
            word.append(a.index)
            at = a.target
        coeff = draw(st.integers(-3, 3))
        if pres.params.names and draw(st.booleans()):
            coeff = coeff * pres.param(draw(st.sampled_from(pres.params.names)))
        out = out + Element.from_path(quiver, pres.params, Path(quiver, source, tuple(word)), coeff)
    return out


@st.composite
def mapped_pairs(draw):
    pres, f = draw(st.sampled_from(MAPS))
    return f, draw(elements(pres)), draw(elements(pres))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mapped_pairs())
def test_algebra_map_is_additive_and_multiplicative(case):
    f, x, y = case
    assert f(x + y) == f(x) + f(y)
    assert f(x * y) == f(x) * f(y)
