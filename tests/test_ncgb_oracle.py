"""An independent oracle for the rewriting kernel.

`naive_reduce` rewrites with the monic rules over the fraction field,
keeps its pending words as `Path`s and picks the largest one with `max`
over all of them at every step: the plainest form of "largest word
first".  Below the truncation degree a truncated basis gives unique normal
forms, so `reduce_element` must agree with it term by term.
"""

import random
from fractions import Fraction

import pytest

from flopcalc.catalog import builtins, universal_flopping_algebra
from flopcalc.coeff import RatFunc
from flopcalc.contraction import contraction_presentation
from flopcalc.ncgb import reduce_element, truncated_groebner
from flopcalc.pathalg import Element, Path, parse_presentation

from test_ncgb import RATIONAL_TAILS, TWO_VERTEX
from test_pathalg import rand_path


def _leftmost_match(quiver, word, rules):
    """(position, lead, remainder) of the first lead met scanning `word`."""
    at = word.source
    for i in range(len(word.arrows) + 1):
        for lead, remainder in rules:
            if not lead.arrows:
                if lead.source == at:
                    return i, lead, remainder
            elif word.arrows[i:i + len(lead.arrows)] == lead.arrows:
                return i, lead, remainder
        if i < len(word.arrows):
            at = quiver.arrows[word.arrows[i]].target
    return None


def naive_reduce(x, gb):
    quiver, params, key = x.quiver, x.params, gb.order.key
    rules = [(r.lead, r.remainder_element(quiver, params).terms) for r in gb.rules]
    work = dict(x.terms)
    out = {}
    while work:
        w = max(work, key=key)
        c = work.pop(w)
        match = _leftmost_match(quiver, w, rules)
        if match is None:
            out[w] = c
            continue
        pos, lead, remainder = match
        pre, post = w.arrows[:pos], w.arrows[pos + len(lead.arrows):]
        for p, rc in remainder.items():
            spliced = Path(quiver, w.source, pre + p.arrows + post)
            s = work[spliced] + c * rc if spliced in work else c * rc
            if s.is_zero():
                work.pop(spliced, None)
            else:
                work[spliced] = s
    return Element(quiver, params, out)


def _cases():
    for length in (1, 2, 3):
        pres = universal_flopping_algebra(length).presentation()
        yield "length-%d" % length, pres, pres.gb_degree
    for name in ("laufer-nccr", "length-3-nccr"):
        con = contraction_presentation(builtins()[name].presentation(), "0")
        yield name + "-con", con, 8
    # parameter free with rational rule tails: the kernel runs on Fraction
    con = contraction_presentation(builtins()["length-4-nccr"].presentation(), "0")
    yield "length-4-nccr-con", con, 10
    yield "rational-tails", parse_presentation(RATIONAL_TAILS), 7
    yield "two-vertex", parse_presentation(TWO_VERTEX), 6


CASES = list(_cases())


def _random_element(rng, pres, max_degree):
    """A few words of degree at most `max_degree` with rational, parameter
    and rational-function coefficients."""
    params = pres.params
    terms = {}
    while len(terms) < rng.randint(1, 4):
        p = rand_path(rng, pres.quiver, max_degree)
        if p.degree > max_degree:
            continue
        c = RatFunc.coerce(params, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        if params.names and rng.random() < 0.4:
            v = RatFunc(params.var(rng.choice(params.names)))
            c = c * v if rng.random() < 0.5 else c / (v + RatFunc.coerce(params, 1))
        if not c.is_zero():
            terms[p] = c
    return Element(pres.quiver, params, terms)


@pytest.mark.parametrize("name, pres, degree", CASES, ids=[c[0] for c in CASES])
def test_reduction_agrees_with_the_naive_reducer(name, pres, degree):
    gb = truncated_groebner(pres, max_degree=degree)
    rng = random.Random(31)
    rewritten = 0
    for _ in range(40):
        x = _random_element(rng, pres, degree)
        got = reduce_element(x, gb)
        want = naive_reduce(x, gb)
        assert set(got.terms) == set(want.terms)
        for p, c in want.terms.items():
            assert got.terms[p] == c
        rewritten += got != x
    assert rewritten >= 10


@pytest.mark.parametrize("name", ["length-4-nccr-con", "rational-tails"])
def test_rational_tail_cases_run_on_fractions(name):
    _, pres, degree = next(c for c in CASES if c[0] == name)
    gb = truncated_groebner(pres, max_degree=degree)
    assert not pres.params.names
    assert any(isinstance(entry[-1], Fraction) for r in gb.rules for entry in r.compiled)
