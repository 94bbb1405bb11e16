import collections
import itertools
import random

import pytest

from flopcalc import ncgb
from flopcalc.catalog import builtins, universal_flopping_algebra
from flopcalc.coeff import CoeffError, MultiPoly, ParamRing
from flopcalc.contraction import contraction_presentation
from flopcalc.ncgb import (
    Budget,
    BudgetExceededError,
    INFINITE,
    InfiniteDimensionError,
    TruncationError,
    _Completion,
    _clear_denominators,
    _reduce_poly_terms,
    complete_groebner,
    dimension,
    enumerate_normal_words,
    normal_form,
    reduce_element,
    reduce_poly,
    truncated_groebner,
)
from flopcalc.pathalg import Element, MonomialOrder, Path, parse_presentation


def pres_from(text):
    return parse_presentation(text)


FREE2 = "params:\nvertices: 0\narrows: x: 0 -> 0, y: 0 -> 0\nrelations:"
COMM = "params:\nvertices: 0\narrows: x: 0 -> 0, y: 0 -> 0\nrelations: x*y - y*x"
LAUFER_CON = ("params:\nvertices: 4\narrows: b: 4 -> 4, c: 4 -> 4\n"
              "relations: c^3 - b^2 ; b*c + c*b")
SINKS = ("params:\nvertices: 0\narrows: x: 0 -> 0, y: 0 -> 0, u: 0 -> 0, z: 0 -> 0\n"
         "relations: x - z ; y - z ; u - z")
TWO_VERTEX = ("params: t\nvertices: 0, 1\narrows: a: 0 -> 1, b: 1 -> 0, c: 1 -> 1\n"
              "relations: t*a*b - e0 ; c*c - b*a + e1")
LOOPS = ("params:\nvertices: 0, 1\narrows: p: 0 -> 0, q: 0 -> 0, r: 1 -> 1\n"
         "relations: p*p - e0 ; q*q - e0 ; r*r - e1")
D4_CON = ("params:\nvertices: 4\narrows: b: 4 -> 4, c: 4 -> 4\n"
          "relations: b^2 ; c^2 ; (b + c)^2")
# no parameters, and every rule tail has a denominator (at degree 7)
RATIONAL_TAILS = ("params:\nvertices: 0, 1\n"
                  "arrows: a: 0 -> 1, b: 1 -> 0, x: 0 -> 0, y: 1 -> 1\n"
                  "relations: 2*a*b - 3*x*x + e0 ; 3*b*a - 2*y*y*y ; 5*x*a - 3*a*y")


def test_free_algebra_empty_basis():
    gb = truncated_groebner(pres_from(FREE2), max_degree=5)
    assert gb.rules == []
    assert gb.complete


def test_commutator_brute_force_diamond():
    # single relation xy - yx: NF must sort every word; checked by brute
    # force against all words of length <= 4
    pres = pres_from(COMM)
    gb = truncated_groebner(pres, max_degree=8)
    q = pres.quiver
    for n in range(5):
        for word in itertools.product((0, 1), repeat=n):
            p = Path(q, "0", tuple(word))
            nf = normal_form(Element.from_path(q, pres.params, p), gb)
            expected = Path(q, "0", tuple(sorted(word, reverse=True)))
            # precedence x > y, so the sorted form keeps x's first exactly
            # when x*y rewrites to y*x; check against the actual rule
            rule_lead = gb.rules[0].lead.format(q)
            if rule_lead == "x*y":
                expected = Path(q, "0", tuple(sorted(word, reverse=True)))
            else:
                expected = Path(q, "0", tuple(sorted(word)))
            assert list(nf.terms) == [expected]


def test_generating_relations_reduce_to_zero():
    for length in (1, 2, 3):
        entry = universal_flopping_algebra(length)
        pres = entry.presentation()
        gb = truncated_groebner(pres, max_degree=pres.gb_degree)
        for rel in pres.relations:
            assert normal_form(rel, gb).is_zero()
        zero = Element.zero(pres.quiver, pres.params)
        assert normal_form(zero, gb).is_zero()


def test_length2_theorem_normal_form():
    # aa* = t e0 in the length-2 universal flopping algebra
    pres = universal_flopping_algebra(2).presentation()
    gb = truncated_groebner(pres, max_degree=6)
    nf = normal_form(pres.element("a*A"), gb)
    assert nf == pres.element("t*e0")


def test_laufer_contraction_nine_words():
    pres = pres_from(LAUFER_CON)
    gb = truncated_groebner(pres, max_degree=10)
    words = enumerate_normal_words(gb, "4", "4", None)
    assert len(words) == 9


def test_d4_slice_contraction_four_words():
    pres = pres_from(D4_CON)
    gb = truncated_groebner(pres, max_degree=8)
    assert len(enumerate_normal_words(gb, None, None, None)) == 4


def test_free_two_loops_seven_words_to_degree_two():
    gb = truncated_groebner(pres_from(FREE2), max_degree=4)
    words = enumerate_normal_words(gb, None, None, 2)
    assert len(words) == 7  # 1 + 2 + 4


def test_dimension_examples():
    assert dimension(pres_from(
        "params:\nvertices: 0\narrows: x: 0 -> 0\nrelations: x^2")) == 2
    assert dimension(pres_from(LAUFER_CON)) == 9
    assert dimension(pres_from(FREE2)) == INFINITE
    # polynomial ring in one loop: infinite as well
    assert dimension(pres_from(
        "params:\nvertices: 0\narrows: x: 0 -> 0\nrelations:")) == INFINITE


def test_a_relation_that_kills_a_vertex():
    # a*A = e0 makes e0 a rule with an empty lead; the completion then
    # reduces e0 and every path through vertex 0 to zero
    pres = pres_from("params:\nvertices: 0, 1\narrows: a: 0 -> 1, A: 1 -> 0, b: 1 -> 1\n"
                     "relations: a*A - e0 ; a*b ; b*b ; A*a - b")
    gb = truncated_groebner(pres, max_degree=6)
    assert gb.serialize().endswith("e0 -> 0\nb -> 0\n")
    assert dimension(pres) == 1
    from flopcalc.contraction import completed_dimension, contraction_report
    assert completed_dimension(pres) == 1
    assert normal_form(pres.element("a*A*a + e0 + e1"), gb) == pres.element("e1")
    assert contraction_report(pres, "1").dim == 0
    assert contraction_report(pres, "0").dim == 1


def test_dimension_central_fibre_contractions():
    # 2 l (l - 1) for l >= 2; the printed remark's value at length 3 is
    # inconsistent with its own neighbours (see the acceptance suite)
    expected = {1: 1, 2: 4, 3: 12, 4: 24, 5: 40, 6: 60}
    from flopcalc.contraction import contraction_presentation
    for l, want in expected.items():
        cf = universal_flopping_algebra(l).central_fibre_presentation()
        con = contraction_presentation(cf, "0")
        assert dimension(con) == want


def test_nf_idempotent_linear_randomized():
    pres = universal_flopping_algebra(2).presentation()
    gb = truncated_groebner(pres, max_degree=6)
    rng = random.Random(11)
    from test_pathalg import rand_path
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            p = rand_path(rng, pres.quiver, 5)
            terms[p] = pres.param("t").__class__.coerce(pres.params, rng.randint(-4, 4))
        x = Element(pres.quiver, pres.params, {p: c for p, c in terms.items() if not c.is_zero()})
        if x.degree() > gb.truncation_degree:
            continue
        nf = normal_form(x, gb)
        assert reduce_element(nf, gb) == nf
        y = Element.from_path(pres.quiver, pres.params, rand_path(rng, pres.quiver, 4))
        lin = normal_form(x + y.scale(3), gb) if (x + y.scale(3)).degree() <= 6 else None
        if lin is not None:
            assert lin == normal_form(x, gb) + normal_form(y, gb).scale(3)


def test_ideal_membership_soundness():
    pres = universal_flopping_algebra(2).presentation()
    gb = truncated_groebner(pres, max_degree=8)
    rng = random.Random(23)
    from test_pathalg import rand_path
    q = pres.quiver
    count = 0
    for _ in range(200):
        rel = rng.choice(pres.relations)
        u = Element.from_path(q, pres.params, rand_path(rng, q, 2))
        v = Element.from_path(q, pres.params, rand_path(rng, q, 2))
        x = u * rel * v
        if x.is_zero() or x.degree() > gb.truncation_degree:
            continue
        count += 1
        assert normal_form(x, gb).is_zero()
    assert count > 40


def test_determinism_bit_identical():
    pres = builtins()["laufer-nccr"].presentation()
    a = truncated_groebner(pres, max_degree=8).serialize()
    b = truncated_groebner(pres, max_degree=8).serialize()
    assert a == b


def test_truncation_error_on_overdegree_input():
    pres = pres_from(LAUFER_CON)
    gb = truncated_groebner(pres, max_degree=4)
    big = pres.element("b^2") ** 3
    with pytest.raises(TruncationError):
        normal_form(big, gb)


def test_budget_exhaustion_carries_partial():
    pres = universal_flopping_algebra(3).presentation()
    with pytest.raises(BudgetExceededError) as err:
        truncated_groebner(pres, max_degree=8, budget=Budget(5))
    assert err.value.partial is not None


def test_max_degree_below_relations_rejected():
    pres = pres_from(LAUFER_CON)
    with pytest.raises(Exception):
        truncated_groebner(pres, max_degree=2)


def test_serialize_header():
    pres = pres_from(LAUFER_CON)
    gb = truncated_groebner(pres, max_degree=6)
    text = gb.serialize()
    assert text.startswith("order: deglex; b, c\n")
    assert "truncation_degree: 6" in text
    assert "complete:" in text


def test_laufer_multiplication_table_associative():
    # independent oracle: multiply all 9x9x9 triples of normal words both
    # ways through the rewriting system
    pres = pres_from(LAUFER_CON)
    gb = truncated_groebner(pres, max_degree=12)
    words = enumerate_normal_words(gb, "4", "4", None)
    assert len(words) == 9
    els = [Element.from_path(pres.quiver, pres.params, w) for w in words]
    for x in els:
        for y in els:
            xy = reduce_element(x * y, gb)
            for z in els:
                lhs = reduce_element(xy * z, gb)
                rhs = reduce_element(x * reduce_element(y * z, gb), gb)
                assert lhs == rhs


def test_serialized_rules_parse_back():
    # remainders can carry rational-function coefficients; the element
    # syntax supports division by central coefficients so they round-trip
    from flopcalc.pathalg import parse_element
    pres = universal_flopping_algebra(5).presentation()
    gb = truncated_groebner(pres, max_degree=6)
    q, pr = pres.quiver, pres.params
    assert any(not r.lc.is_one() for r in gb.rules)
    for r in gb.rules:
        rem = r.remainder_element(q, pr)
        assert parse_element(rem.format(gb.order), q, pr) == rem


class _CountingOrder(MonomialOrder):
    """The same order, counting key computations per word."""

    def __init__(self, order):
        super().__init__(order.quiver, order.precedence)
        self.calls = collections.Counter()

    def key(self, path):
        self.calls[path] += 1
        return super().key(path)


def test_reduction_word_cancels_and_reappears():
    # x -> z cancels against y -> z, then u -> z re-creates z while its
    # first entry is still pending
    pres = pres_from(SINKS)
    gb = truncated_groebner(pres, max_degree=4)
    nf = normal_form(pres.element("x - y + u"), gb)
    assert nf == pres.element("z")
    assert normal_form(pres.element("x*x - y*u + u*y"), gb) == pres.element("z*z")


def test_reduction_keys_each_input_word_at_most_once():
    # pending words are packed integers: only the input words go through
    # the order's key, and each at most once
    for text, degree, element in ((SINKS, 4, "x - y + u"),
                                  (LAUFER_CON, 12, "(b + c)^6 + c^2*b*c^2"),
                                  (TWO_VERTEX, 6, "a*c*c*b + e1 - c^4")):
        pres = pres_from(text)
        gb = truncated_groebner(pres, max_degree=degree)
        counting = _CountingOrder(gb.order)
        terms, _ = _clear_denominators(pres.element(element))
        budget = Budget()
        got = _reduce_poly_terms(terms, gb._index, pres.quiver, counting, budget)
        assert got == reduce_poly(pres.element(element), gb)
        assert budget.steps > 0
        assert set(counting.calls) <= set(terms)
        assert max(counting.calls.values()) <= 1


def test_parameter_free_reduction_makes_no_polynomial_arithmetic(monkeypatch):
    # without parameters the kernel works on Python rationals: a MultiPoly
    # product or sum inside it would be a silent fallback
    for text, degree, element in ((RATIONAL_TAILS, 7, "5*b*x^4*a*y + b*x^3*a - (1/2)*b*a*b*a"),
                                  (LAUFER_CON, 12, "(b + c)^6 + c^2*b*c^2")):
        pres = pres_from(text)
        gb = truncated_groebner(pres, max_degree=degree)
        want, _ = reduce_poly(pres.element(element), gb)
        terms, _ = _clear_denominators(pres.element(element))
        calls = []
        budget = Budget()
        with monkeypatch.context() as m:
            for name in ("__mul__", "__rmul__", "_add"):
                real = getattr(MultiPoly, name)
                m.setattr(MultiPoly, name,
                          lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
            got, mult = _reduce_poly_terms(terms, gb._index, pres.quiver, gb.order, budget)
        assert calls == []
        assert budget.steps > 0
        assert got == want and mult.is_one()


def test_parameter_free_reduction_rejects_a_nonconstant_coefficient():
    pres = pres_from(LAUFER_CON)
    gb = truncated_groebner(pres, max_degree=12)
    q = pres.quiver
    t = ParamRing(["t"]).var("t")
    terms = {Path(q, "4", (0, 0, 0)): pres.params.one(), Path(q, "4", (1,)): t}
    with pytest.raises(CoeffError, match="non-constant"):
        _reduce_poly_terms(terms, gb._index, q, gb.order, Budget())


def test_idempotent_ties_keep_recorded_order():
    # e0 and e1 share the smallest order key; the recorded term orders and
    # basis are those of the linear-scan reduction this loop replaced
    pres = pres_from(TWO_VERTEX)
    gb = truncated_groebner(pres, max_degree=6)
    assert gb.serialize() == (
        "order: deglex; a, b, c\ntruncation_degree: 6\ncomplete: false\n"
        "b*a -> c*c + e1\na*b -> ((1)/(t))*e0\nc*c*b -> ((-t + 1)/(t))*b\n"
        "a*c*c -> ((-t + 1)/(t))*a\n"
        "c*c*c*c -> ((-2*t + 1)/(t))*c*c + ((-t + 1)/(t))*e1\n")
    recorded = {
        "e1 + e0 + a*b + b*a + c^3": "c*c*c + c*c + 2*e1 + ((t + 1)/(t))*e0",
        "e0 + 2*e1 + c*c + a*b": "c*c + ((t + 1)/(t))*e0 + 2*e1",
        "a*c*c*b + e1 - c^4":
            "((2*t - 1)/(t))*c*c + ((2*t - 1)/(t))*e1 + ((-t + 1)/(t^2))*e0",
    }
    for text, want in recorded.items():
        assert normal_form(pres.element(text), gb).format(gb.order) == want
    # e0 cancels (p*p) and comes back (q*q) after e1 entered: e1 goes first
    pres = pres_from(LOOPS)
    gb = truncated_groebner(pres, max_degree=4)
    nf = normal_form(pres.element("e0 + e1 - p*p + q*q"), gb)
    assert nf.format(gb.order) == "e1 + e0"


def test_infinite_dimension_is_typed():
    gb = truncated_groebner(pres_from(FREE2), max_degree=4)
    with pytest.raises(InfiniteDimensionError):
        enumerate_normal_words(gb, None, None, None)
    assert issubclass(InfiniteDimensionError, BudgetExceededError)


def test_complete_groebner_escalates_and_gives_up(monkeypatch):
    # incomplete at degrees 4 and 6, complete at 9
    gb = complete_groebner(pres_from(TWO_VERTEX))
    assert gb.complete and gb.truncation_degree == 9
    monkeypatch.setattr(ncgb, "MAX_TRUNCATION", 8)
    with pytest.raises(BudgetExceededError, match="no complete basis"):
        complete_groebner(pres_from(TWO_VERTEX))


def test_complete_groebner_gives_up_with_the_last_basis(monkeypatch):
    monkeypatch.setattr(ncgb, "MAX_TRUNCATION", 8)
    with pytest.raises(BudgetExceededError) as err:
        complete_groebner(pres_from(TWO_VERTEX))
    partial = err.value.partial
    assert partial.truncation_degree == 6 and not partial.complete
    assert "at degree 6" in str(err.value)
    assert "has %d rules" % len(partial.rules) in str(err.value)


def test_budget_exhaustion_mid_ladder_carries_the_current_rung():
    # a budget of exactly the steps of the first rung, degree 4, lets that
    # rung finish and runs out at the next one, degree 6
    pres = pres_from(TWO_VERTEX)
    first = _Completion(pres, Budget())
    first.run(4)
    with pytest.raises(BudgetExceededError) as err:
        complete_groebner(pres, budget=Budget(first.budget.steps))
    assert err.value.partial.truncation_degree == 6
    assert not err.value.partial.complete
    assert "truncation degree 6" in str(err.value)


@pytest.mark.parametrize("name", ["two-vertex", "laufer-con", "length-3-nccr-con"])
def test_resumed_ladder_matches_a_from_scratch_run(name):
    pres = {
        "two-vertex": lambda: pres_from(TWO_VERTEX),
        "laufer-con": lambda: pres_from(LAUFER_CON),
        "length-3-nccr-con": lambda: contraction_presentation(
            builtins()["length-3-nccr"].presentation(), "0"),
    }[name]()
    ladder = Budget()
    gb = complete_groebner(pres, budget=ladder)
    scratch = Budget()
    ref = truncated_groebner(pres, max_degree=gb.truncation_degree, budget=scratch)
    assert gb.complete and gb.serialize() == ref.serialize()
    # the rungs below redo no reduction
    assert ladder.steps <= scratch.steps


# a rule of degree 6 rewrites the tail of a rule the degree-4 basis holds
TAIL_REWRITE = ("params:\nvertices: 0\narrows: x: 0 -> 0, y: 0 -> 0\n"
            "relations: x*y^2 - x^2 - y ; 2*y^2*x - x^2*y + y^3")


def test_a_handed_out_basis_does_not_change_when_the_ladder_continues():
    pres = pres_from(TAIL_REWRITE)
    completion = _Completion(pres, Budget())
    low = completion.run(4)
    text = low.serialize()
    completion.run(6)
    assert low.serialize() == text


def test_a_rule_never_changes_once_built():
    pres = pres_from(TAIL_REWRITE)
    completion = _Completion(pres, Budget())
    low = completion.run(4)
    # a handed-out basis shares its rule objects with the index
    assert all(completion.index.rules[r.lead] is r for r in low.rules)
    built = [(r, r.lc, r.rest, r.compiled) for r in completion.index.rules.values()]
    # the degree-6 rule rewrites two of these tails, and every rule of
    # degree 4 is retired by the end: each keeps what it was built with
    completion.run(6)
    for r, lc, rest, compiled in built:
        assert r.lc is lc and r.rest is rest and r.compiled is compiled
