"""The chain criterion changes no basis and never adds a reduction step.

Each case completes twice, once as shipped and once with
`ncgb._holds_inner_lead` patched to skip nothing, and compares the
serialized bases byte for byte and the step counts.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings, strategies as st  # noqa: E402

from flopcalc import ncgb  # noqa: E402
from flopcalc.catalog import builtins, universal_flopping_algebra  # noqa: E402
from flopcalc.contraction import contraction_presentation  # noqa: E402
from flopcalc.ncgb import (  # noqa: E402
    Budget,
    BudgetExceededError,
    complete_groebner,
    truncated_groebner,
)
from flopcalc.pathalg import parse_presentation  # noqa: E402

TWO_VERTEX = ("params: t\nvertices: 0, 1\narrows: a: 0 -> 1, b: 1 -> 0, c: 1 -> 1\n"
              "relations: t*a*b - e0 ; c*c - b*a + e1")


def steps_with_and_without(complete, max_steps=10 ** 6):
    """(steps with the criterion, steps without) once both bases agree, or
    None when the run without the criterion takes more than `max_steps`."""
    off = Budget(max_steps)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ncgb, "_holds_inner_lead", lambda index, word: False)
        try:
            ref = complete(off)
        except BudgetExceededError:
            return None
    # a run with the criterion that takes more steps exhausts this budget
    on = Budget(off.steps)
    gb = complete(on)
    assert gb.serialize() == ref.serialize()
    return on.steps, off.steps


def contraction_of(name):
    return contraction_presentation(builtins()[name].presentation(), "0")


@pytest.mark.parametrize("name", ["two-vertex", "laufer-nccr", "length-3-nccr"])
def test_ladder_bases_agree(name):
    pres = parse_presentation(TWO_VERTEX) if name == "two-vertex" else contraction_of(name)
    assert steps_with_and_without(lambda b: complete_groebner(pres, budget=b))


@pytest.mark.parametrize("length", [1, 2, 3])
def test_universal_bases_agree(length):
    pres = universal_flopping_algebra(length).presentation()
    assert steps_with_and_without(lambda b: truncated_groebner(pres, budget=b))


def test_length_4_contraction_halves_its_steps():
    pres = contraction_of("length-4-nccr")
    on, off = steps_with_and_without(
        lambda b: truncated_groebner(pres, max_degree=12, budget=b))
    # 21,542 against 45,552 when measured
    assert 2 * on < off


def relation_text(draw, arrows, params, vertices):
    """One relation of 1-3 terms on words of one length, 1-3, with common
    endpoints."""
    source, target = draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))
    frontier = [([], source)]
    for _ in range(draw(st.integers(1, 3))):
        frontier = [(w + [name], t) for w, at in frontier
                    for name, (s, t) in arrows.items() if s == at]
    words = [w for w, at in frontier if at == target]
    assume(words)
    chosen = draw(st.lists(st.sampled_from(range(len(words))), min_size=1, max_size=3,
                           unique=True))
    terms = []
    for i in chosen:
        coeff = str(draw(st.sampled_from([1, -1, 2, -3])))
        if params and draw(st.booleans()):
            coeff += "*" + draw(st.sampled_from(params))
        terms.append("%s*%s" % (coeff, "*".join(words[i])))
    return " + ".join(terms)


@st.composite
def small_presentations(draw):
    vertices = ["0", "1"][:draw(st.integers(1, 2))]
    params = ["t", "u"][:draw(st.integers(0, 2))]
    arrows = {name: (draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
              for name in ["a", "b", "c"][:draw(st.integers(2, 3))]}
    relations = [relation_text(draw, arrows, params, vertices)
                 for _ in range(draw(st.integers(2, 3)))]
    text = "params: %s\nvertices: %s\narrows: %s\nrelations: %s" % (
        ", ".join(params), ", ".join(vertices),
        ", ".join("%s: %s -> %s" % (n, s, t) for n, (s, t) in arrows.items()),
        " ; ".join(relations))
    return parse_presentation(text), draw(st.integers(5, 7))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(small_presentations())
def test_random_small_presentations_agree(case):
    pres, degree = case
    assume(degree >= max((r.degree() for r in pres.relations if not r.is_zero()), default=0))
    assume(steps_with_and_without(
        lambda b: truncated_groebner(pres, max_degree=degree, budget=b), max_steps=300))
