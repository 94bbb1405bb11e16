"""The presentation printer is a fixed point of the parser.

Random small presentations (1-2 vertices, loops and arrows between them,
0-2 parameters, rational coefficients) are parsed, printed, parsed
again and printed again: both prints agree byte for byte, and both parses
give the same presentation.  hypothesis is test-only; the module skips
where it is missing.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings, strategies as st  # noqa: E402

from flopcalc.pathalg import format_presentation, parse_presentation  # noqa: E402


def relation_text(draw, arrows, params, vertices):
    """1-4 terms on words of length 0-3 with common endpoints; a word of
    length 0 is the idempotent, and the same word may repeat and cancel."""
    source, target = draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))
    words, frontier = [], [([], source)]
    for _ in range(4):
        words += [w for w, at in frontier if at == target]
        frontier = [(w + [name], t) for w, at in frontier
                    for name, (s, t, _) in arrows.items() if s == at]
    assume(words)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        word = draw(st.sampled_from(words)) or ["e" + source]
        coeff = Fraction(draw(st.sampled_from([n for n in range(-5, 6) if n])),
                         draw(st.integers(1, 4)))
        factors = ["(%s)" % coeff]
        factors += ["%s^%d" % (p, k) for p in params for k in [draw(st.integers(0, 2))] if k]
        terms.append("*".join(factors + word))
    return " + ".join(terms)


@st.composite
def presentation_texts(draw):
    vertices = ["0", "1"][:draw(st.integers(1, 2))]
    params = ["t", "u"][:draw(st.integers(0, 2))]
    arrows = {name: (draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)),
                     draw(st.integers(1, 2)))
              for name in ["a", "b", "c"][:draw(st.integers(1, 3))]}
    lines = ["name: random"] if draw(st.booleans()) else []
    lines.append("params: %s" % ", ".join(params))
    lines.append("vertices: %s" % ", ".join(vertices))
    lines.append("arrows: %s" % ", ".join(
        "%s: %s -> %s (deg %d)" % (n, s, t, d) for n, (s, t, d) in arrows.items()))
    relations = [relation_text(draw, arrows, params, vertices)
                 for _ in range(draw(st.integers(0, 3)))]
    lines.append("relations: %s" % " ; ".join(relations))
    if draw(st.booleans()):
        lines.append("precedence: %s" % ", ".join(draw(st.permutations(sorted(arrows)))))
    if draw(st.booleans()):
        lines.append("gb_degree: %d" % draw(st.integers(1, 12)))
    return "\n".join(lines)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(presentation_texts())
def test_format_is_a_fixed_point_of_parse(text):
    pres = parse_presentation(text)
    printed = format_presentation(pres)
    again = parse_presentation(printed)
    assert again == pres
    assert format_presentation(again) == printed
