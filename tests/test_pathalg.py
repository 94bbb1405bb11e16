import random

import pytest

from flopcalc.catalog import catalog_names, catalog_presentation
from flopcalc.coeff import ParamRing
from flopcalc.pathalg import (
    AlgebraPresentation,
    Element,
    MonomialOrder,
    ParseError,
    Path,
    MAX_POWER_DEGREE,
    PathAlgebraError,
    Quiver,
    algebra_map,
    arrow_path,
    compose,
    format_presentation,
    idempotent_path,
    parse_presentation,
)

L2_TEXT = """
name: length-2
params: t, T0b, T0c, T0d
vertices: 0, 4
arrows: a: 0 -> 4, A: 4 -> 0, b: 4 -> 4, c: 4 -> 4, d: 4 -> 4
relations: a*A - t*e0 ; b*b - T0b*e4 ; c*c - T0c*e4 ; d*d - T0d*e4
relations: A*a + b + c + d - (1/2)*t*e4
"""


@pytest.fixture(scope="module")
def l2():
    return parse_presentation(L2_TEXT)


def test_compose_idempotent_identity(l2):
    q = l2.quiver
    a = arrow_path(q, "a")
    e0 = idempotent_path(q, "0")
    assert compose(q, e0, a) == a
    assert compose(q, a, idempotent_path(q, "4")) == a


def test_compose_zero_for_noncomposable(l2):
    q = l2.quiver
    a = arrow_path(q, "a")
    assert compose(q, a, a) is None


def test_compose_theorem_quiver_path(l2):
    q = l2.quiver
    a, b, A = arrow_path(q, "a"), arrow_path(q, "b"), arrow_path(q, "A")
    p = compose(q, compose(q, a, b), A)
    assert (p.source, p.target) == ("0", "0")
    assert p.format(q) == "a*b*A"


def rand_path(rng, quiver, max_len=5):
    v = rng.choice(quiver.vertices)
    arrows = []
    at = v
    for _ in range(rng.randint(0, max_len)):
        outs = [a for a in quiver.arrows if a.source == at]
        if not outs:
            break
        a = rng.choice(outs)
        arrows.append(a.index)
        at = a.target
    return Path(quiver, v, tuple(arrows))


def test_compose_associative_randomized(l2):
    rng = random.Random(42)
    q = l2.quiver
    for _ in range(200):
        p1, p2, p3 = (rand_path(rng, q) for _ in range(3))
        left = compose(q, p1, p2)
        lhs = compose(q, left, p3) if left is not None else None
        right = compose(q, p2, p3)
        rhs = compose(q, p1, right) if right is not None else None
        assert lhs == rhs


def test_idempotents_complete_family(l2):
    rng = random.Random(7)
    one = Element.identity(l2.quiver, l2.params)
    for _ in range(30):
        x = Element.from_path(l2.quiver, l2.params, rand_path(rng, l2.quiver), 3)
        assert one * x == x
        assert x * one == x


def test_element_arith_examples(l2):
    a, A = l2.arrow("a"), l2.arrow("A")
    assert (a * A) == l2.element("a*A")
    b, c = l2.arrow("b"), l2.arrow("c")
    assert (b + c) * (b - c) == l2.element("b^2 - b*c + c*b - c^2")
    e4 = l2.idempotent(4)
    t = l2.param("t")
    assert (e4.scale(t) - e4.scale(t)).is_zero()
    assert b * c == l2.element("b*c")


def test_element_algebra_mismatch(l2):
    other = parse_presentation("params:\nvertices: 0\narrows: x: 0 -> 0\nrelations:")
    with pytest.raises(PathAlgebraError, match="different algebras"):
        l2.arrow("a") + other.arrow("x")


def test_monomial_order_multiplicative_well_founded(l2):
    rng = random.Random(3)
    q = l2.quiver
    order = MonomialOrder(q, ["a", "A", "d", "c", "b"])
    for _ in range(400):
        u, v, w = (rand_path(rng, q, 8) for _ in range(3))
        if order.key(u) < order.key(v):
            wu, wv = compose(q, w, u), compose(q, w, v)
            if wu is not None and wv is not None:
                assert order.key(wu) < order.key(wv)
            uw, vw = compose(q, u, w), compose(q, v, w)
            if uw is not None and vw is not None:
                assert order.key(uw) < order.key(vw)
        # well-founded: key strictly bounded below by the empty path key
        assert order.key(u) >= order.key(idempotent_path(q, u.source))


def test_order_key_digits_order_words_like_rank_tuples():
    # two vertices, arrows of degree 2, a precedence other than declaration
    # order; ranks are recomputed here from the precedence list
    q = Quiver(["0", "1"], [("a", "0", "1"), ("b", "1", "0", 2), ("c", "1", "1"),
                            ("d", "0", "0", 2), ("f", "1", "1", 2)])
    precedence = ["c", "f", "a", "d", "b"]
    order = MonomialOrder(q, precedence)
    rank = {q.arrow(name).index: len(precedence) - pos for pos, name in enumerate(precedence)}

    def reference(p):
        return (p.degree, len(p.arrows), tuple(rank[i] for i in p.arrows))

    rng = random.Random(2024)
    words = [rand_path(rng, q, 7) for _ in range(250)]
    words += [idempotent_path(q, v) for v in q.vertices]
    assert any(p.degree > len(p.arrows) for p in words)
    keys = [order.key(p) for p in words]
    refs = [reference(p) for p in words]
    for k1, r1 in zip(keys, refs):
        for k2, r2 in zip(keys, refs):
            assert (k1 < k2) == (r1 < r2)
            assert (k1 == k2) == (r1 == r2)
    assert sorted(words, key=order.key) == sorted(words, key=reference)
    # nonempty words have distinct digits; e_v has digits 0
    assert all((k[2] == 0) == (not p.arrows) for p, k in zip(words, keys))
    assert len({k[2] for p, k in zip(words, keys) if p.arrows}) == len(
        {p for p in words if p.arrows})


def test_parse_print_identity_on_catalog():
    for name in catalog_names():
        pres = catalog_presentation(name)
        text = format_presentation(pres)
        again = parse_presentation(text)
        assert again.quiver == pres.quiver
        assert again.params == pres.params
        assert again.relations == pres.relations
        assert format_presentation(again) == text


def test_parse_empty_relations_free_algebra():
    pres = parse_presentation("params:\nvertices: 0\narrows: x: 0 -> 0, y: 0 -> 0\nrelations:")
    assert pres.relations == []


def test_parse_rejects_inhomogeneous_relation():
    with pytest.raises(ParseError):
        parse_presentation(
            "params:\nvertices: 0, 4\narrows: a: 0 -> 4, A: 4 -> 0, b: 4 -> 4\n"
            "relations: A*a + a"
        )


def test_parse_rejects_unknown_names():
    with pytest.raises(ParseError):
        parse_presentation("params:\nvertices: 0\narrows: x: 0 -> 0\nrelations: q*x")
    with pytest.raises(ParseError):
        parse_presentation("params:\nvertices: 0\narrows: x: 0 -> 1\nrelations:")


def test_parse_error_reports_line():
    try:
        parse_presentation("params: t\nvertices: 0\narrows: x: 0 -> 0\nrelations: x +")
    except ParseError as exc:
        assert "relation" in str(exc)
    else:
        pytest.fail("expected ParseError")


@pytest.mark.parametrize("line, what", [
    ("gb_degree: x", "gb_degree must be an integer, got 'x'"),
    ("arrows: a: 0 -> 0 (deg y)", "degree of arrow 'a' must be an integer, got 'y'"),
])
def test_parse_rejects_bad_integers_naming_the_line(line, what):
    text = "params:\nvertices: 0\narrows: b: 0 -> 0\nrelations:\n" + line
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert str(err.value) == "%s (line 5)" % what
    assert err.value.line == 5


@pytest.mark.parametrize("line, what", [
    ("params: t (deg x)", "bad parameter name 't (deg x)'"),
    ("params: t (deg 4)", "bad parameter name 't (deg 4)'"),
    ("params: t-1", "bad parameter name 't-1'"),
    ("params: s t", "bad parameter name 's t'"),
    ("params: b", "parameter 'b' is also the name of an arrow or an idempotent"),
    ("params: e0", "parameter 'e0' is also the name of an arrow or an idempotent"),
])
def test_parse_rejects_bad_parameter_names_naming_the_line(line, what):
    text = "params: u\nvertices: 0\narrows: b: 0 -> 0\nrelations:\n" + line
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert str(err.value) == "%s (line 5)" % what


def test_a_parameter_may_not_share_a_name_with_an_arrow_or_idempotent():
    pres = parse_presentation("params: t\nvertices: 0\narrows: b: 0 -> 0\nrelations: b*b")
    for names in (["b"], ["t", "e0"]):
        with pytest.raises(PathAlgebraError, match="also the name of an arrow"):
            AlgebraPresentation(pres.quiver, ParamRing(names), [])
    # e1 names no idempotent here, so it is a parameter like any other
    assert AlgebraPresentation(pres.quiver, ParamRing(["e1"]), []).params.names == ("e1",)


@pytest.mark.parametrize("text, message", [
    ("params: t\nvertices: 0\narrows: a: 0 -> 0\nrelations: a*a - t*$",
     "in relation 'a*a - t*$': unexpected character '$' at position 8 (line 4, column 20)"),
    ("params: t\nvertices: 0\narrows: a: 0 -> 0\n  relations:  a ; q*a  # note",
     "in relation 'q*a': unknown name 'q' (not an arrow, idempotent, or parameter)"
     " (line 4, column 19)"),
    ("params:\nvertices: 0\narrows: b: 0 -> 0\narrows: a: 0 -> 1\nrelations:",
     "arrow 'a' has undeclared endpoint (line 4)"),
    ("params:\nvertices: 0\narrows: a: 0 -> 0\n\narrows: b: 0 -> 0, a: 0 -> 0\nrelations:",
     "duplicate arrow name 'a' (line 5)"),
])
def test_presentation_errors_give_the_line_and_its_column(text, message):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("b**c", "unexpected token '*' (column 3)"),
    ("b*(", "unexpected end of input (column 4)"),
    ("(b", "expected ) at position 2, found end of input (column 3)"),
    ("b^c", "expected num at position 2, found token 'c' (column 3)"),
    ("b*$", "unexpected character '$' at position 2 (column 3)"),
    ("b*(1/0)", "zero denominator at position 5 (column 6)"),
    ("q*b", "unknown name 'q' (not an arrow, idempotent, or parameter) (column 1)"),
])
def test_element_parse_errors_say_where(text, message):
    pres = parse_presentation("params: t\nvertices: 0\narrows: b: 0 -> 0, c: 0 -> 0\nrelations:")
    with pytest.raises(ParseError) as err:
        pres.element(text)
    assert str(err.value) == message


def test_algebra_map_sends_e0_and_paths_through_it_to_zero(l2):
    # the contraction map at vertex 0: e0, a and A go to zero
    at4 = parse_presentation("params: t, T0b, T0c, T0d\nvertices: 4\n"
                             "arrows: b: 4 -> 4, c: 4 -> 4, d: 4 -> 4\nrelations:")
    drop = {"a": None, "A": None}
    for text in ("e0", "a*A", "A*a", "b*A*a*c", "t*a*b*A"):
        assert algebra_map(l2.element(text), at4.quiver, at4.params, drop).is_zero()
    image = algebra_map(l2.element("A*a + b + c*d - t*e0 + T0b*e4"), at4.quiver, at4.params, drop)
    assert image == at4.element("b + c*d + T0b*e4")


def test_arrow_degree_syntax():
    pres = parse_presentation(
        "params:\nvertices: 0\narrows: x: 0 -> 0 (deg 2), y: 0 -> 0\nrelations:")
    assert pres.quiver.arrow("x").degree == 2
    p = compose(pres.quiver, arrow_path(pres.quiver, "x"), arrow_path(pres.quiver, "y"))
    assert p.degree == 3


def test_scale_by_rational_and_param(l2):
    b = l2.arrow("b")
    t = l2.param("t")
    x = b.scale(t) * b.scale(2)
    assert x == l2.element("2*t*b^2")


def test_power_by_squaring(l2):
    b = l2.element("b + t*e4")
    assert b ** 0 == l2.element("e0 + e4")
    assert b ** 5 == b * b * b * b * b


def test_power_stops_at_zero(l2):
    # a*a does not compose, so a^2 = 0 and no huge path is ever built
    a = l2.element("a")
    assert (a ** (10 ** 12)).is_zero()


def test_power_path_degree_limit(l2, monkeypatch):
    # b is a loop, so b^n is one path of n arrows
    b = l2.element("b")
    assert (b ** MAX_POWER_DEGREE).degree() == MAX_POWER_DEGREE
    with pytest.raises(PathAlgebraError, match="exceeds the limit"):
        b ** (MAX_POWER_DEGREE + 1)
    # refused before the longer path is built, also where the limit is
    # passed by a squaring rather than by the final product
    built = []
    mul = Element.__mul__

    def spy(x, y):
        out = mul(x, y)
        built.append(out.degree())
        return out

    monkeypatch.setattr(Element, "__mul__", spy)
    with pytest.raises(PathAlgebraError, match="exceeds the limit"):
        b ** (2 * MAX_POWER_DEGREE)
    assert max(built) == MAX_POWER_DEGREE
    monkeypatch.undo()
    # degree-0 powers are not limited
    t = l2.element("t*e4")
    assert (t ** (10 * MAX_POWER_DEGREE)).degree() == 0
