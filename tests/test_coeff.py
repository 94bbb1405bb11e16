import random
from fractions import Fraction

import pytest

from flopcalc import coeff
from flopcalc.coeff import (
    CoeffError,
    DivisionByZeroError,
    MultiPoly,
    ParamRing,
    RatFunc,
    divexact,
    elementary_symmetric,
    format_poly,
    parse_poly,
    poly_gcd,
    tokenize_poly,
)

RING = ParamRing(["t", "u", "v", "w"])


def rand_poly(rng, ring, terms=4, deg=3, span=6):
    p = ring.zero()
    for _ in range(rng.randint(0, terms)):
        mono = ring.const(Fraction(rng.randint(-span, span), rng.randint(1, 3)))
        for name in ring.names:
            mono = mono * ring.var(name) ** rng.randint(0, deg)
        p = p + mono
    return p


def test_ring_axioms_randomized():
    rng = random.Random(101)
    for _ in range(60):
        a, b, c = (rand_poly(rng, RING) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + RING.zero() == a
        assert a * RING.one() == a


def test_monomial_product():
    t, u, w = RING.var("t"), RING.var("u"), RING.var("w")
    assert (t * u) * (t * w) == t ** 2 * u * w


def test_sub_to_zero():
    p = parse_poly("u*w - v^2", RING)
    assert (p - p).is_zero()


def test_div_roundtrip():
    t = RING.var("t")
    p = parse_poly("t^2 - u", RING)
    q = RatFunc(p) / t
    assert isinstance(q, RatFunc)
    assert q * t == RatFunc(p)


def test_div_by_zero_distinct_error():
    with pytest.raises(DivisionByZeroError):
        RatFunc(RING.one()) / RING.zero()


def test_substitute_laufer_example():
    # f = x^2+u y^2+2 v y z+w z^2+(uw-v^2) t^2 under w->-t, u->y, v->0
    ring = ParamRing(["x", "y", "z", "u", "v", "w", "t"])
    f = parse_poly("x^2 + u*y^2 + 2*v*y*z + w*z^2 + (u*w - v^2)*t^2", ring)
    image = f.substitute({"w": -ring.var("t"), "u": ring.var("y"), "v": ring.zero()}, ring)
    assert image == parse_poly("x^2 + y^3 - t*z^2 - y*t^3", ring)


def test_substitute_identity_and_zero():
    p = parse_poly("t^2 - 3*u", RING)
    assert p.substitute({}) == p
    assert (RING.var("t") ** 2).substitute({"t": RING.zero()}).is_zero()


def test_substitute_is_homomorphism():
    rng = random.Random(77)
    for _ in range(25):
        p, q = rand_poly(rng, RING), rand_poly(rng, RING)
        m = {"t": rand_poly(rng, RING, 2, 2), "u": rand_poly(rng, RING, 2, 2)}
        assert (p * q).substitute(m) == p.substitute(m) * q.substitute(m)
        assert (p + q).substitute(m) == p.substitute(m) + q.substitute(m)


def test_elementary_symmetric_examples():
    ring = ParamRing(["t1", "a", "b", "c"])
    tau1 = parse_poly("(1/2)*t1", ring)
    tau2 = parse_poly("-(1/2)*t1", ring)
    # sigma_2 = -t1^2/4, so -sigma_2 = t1^2/4
    assert elementary_symmetric(2, [tau1, tau2]) == parse_poly("-(1/4)*t1^2", ring)
    a, b, c = ring.var("a"), ring.var("b"), ring.var("c")
    assert elementary_symmetric(1, [a, b, c]) == a + b + c
    assert elementary_symmetric(3, [a, b, c]) == a * b * c
    with pytest.raises(CoeffError):
        elementary_symmetric(4, [a, b, c])


def test_newtons_identity_bruteforce():
    # sigma_k from the library matches expansion of prod (X + x_i)
    rng = random.Random(5)
    ring = ParamRing(["X", "a", "b", "c", "d"])

    def value_poly():
        p = ring.zero()
        for _ in range(rng.randint(0, 2)):
            mono = ring.const(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            for name in ("a", "b", "c", "d"):
                mono = mono * ring.var(name) ** rng.randint(0, 1)
            p = p + mono
        return p

    for n in range(1, 5):
        values = [value_poly() for _ in range(n)]
        prod = ring.one()
        X = ring.var("X")
        for v in values:
            prod = prod * (X + v)
        for k in range(1, n + 1):
            sigma = elementary_symmetric(k, values)
            # coefficient of X^(n-k)
            xi = ring.index("X")
            coeff = MultiPoly(ring, {e[:xi] + (0,) + e[xi + 1:]: c
                                     for e, c in prod.terms.items() if e[xi] == n - k})
            assert coeff == sigma


def test_parse_print_roundtrip():
    rng = random.Random(9)
    for _ in range(40):
        p = rand_poly(rng, RING)
        assert parse_poly(format_poly(p), RING) == p


def test_parse_rational_literals():
    assert parse_poly("3/4", RING) == RING.const(Fraction(3, 4))
    assert parse_poly("(1/2)*t^2 - 2", RING) == RING.var("t") ** 2 * Fraction(1, 2) - 2


def test_parse_errors():
    with pytest.raises(CoeffError):
        parse_poly("q + 1", RING)  # undeclared name
    with pytest.raises(CoeffError):
        parse_poly("t +", RING)
    with pytest.raises(CoeffError, match="zero denominator at position 6"):
        parse_poly("t + 1/0", RING)


def test_packed_key_order_is_grlex():
    rng = random.Random(7)
    top = 2 ** 64 - 1
    small = [tuple(rng.randint(0, 4) for _ in range(4)) for _ in range(80)]
    exps = set(small) | {(top, 0, 0, 0), (0, 0, 0, top), (2 ** 63, 0, 2 ** 63 - 1, 0),
                         (1, top - 1, 0, 0)}
    assert sorted(exps, key=RING._pack) == sorted(exps, key=coeff._grlex_key)
    assert all(RING._unpack(RING._pack(e)) == e for e in exps)
    # a monomial product is one key addition
    for e, f in zip(small[:40], small[40:]):
        assert RING._pack(e) + RING._pack(f) == RING._pack(tuple(x + y for x, y in zip(e, f)))


def test_terms_view_round_trips_through_the_constructor():
    rng = random.Random(5)
    for _ in range(40):
        p = rand_poly(rng, RING)
        view = p.terms
        assert all(isinstance(c, Fraction) and c for c in view.values())
        assert MultiPoly(RING, view) == p
    p = parse_poly("(1/2)*t*u - 2/3 + w", RING)
    assert p.terms == {(1, 1, 0, 0): Fraction(1, 2), (0, 0, 0, 1): 1, (0, 0, 0, 0): Fraction(-2, 3)}
    assert (p.num, p.den) == ({RING._pack((1, 1, 0, 0)): 3, RING._pack((0, 0, 0, 1)): 6, 0: -4}, 6)


def test_equal_polynomials_hash_alike():
    rng = random.Random(17)
    t = RING.var("t")
    for _ in range(30):
        a, b = rand_poly(rng, RING), rand_poly(rng, RING)
        left, right = (a + b) * (a - b), a * a - b * b
        assert left == right and hash(left) == hash(right)
        thirds = a * Fraction(1, 3) + a * Fraction(2, 3)
        assert thirds == a and hash(thirds) == hash(a)
    half = RING.const(Fraction(1, 2))
    assert (half + half).den == 1 and hash(half + half) == hash(RING.one())
    assert divexact(t * t * 6, t * 4) == t * Fraction(3, 2)


def test_large_exponents_fit():
    t = RING.var("t")
    p = t ** 70000
    assert p.total_degree() == 70000 and p.degree_in("t") == 70000
    assert p.terms == {(70000, 0, 0, 0): 1}
    top = t ** (2 ** 64 - 1)
    assert top.lead() == ((2 ** 64 - 1, 0, 0, 0), 1)
    assert format_poly(top) == "t^18446744073709551615"


def test_total_degree_beyond_the_field_raises():
    t, u = RING.var("t"), RING.var("u")
    with pytest.raises(CoeffError):
        t ** (2 ** 64)
    with pytest.raises(CoeffError):
        t ** (2 ** 63) * u ** (2 ** 63)
    with pytest.raises(CoeffError):
        MultiPoly(RING, {(2 ** 64, 0, 0, 0): 1})
    with pytest.raises(CoeffError):
        parse_poly("t^18446744073709551616", RING)


def test_gcd_and_divexact():
    rng = random.Random(31)
    for _ in range(30):
        a = rand_poly(rng, RING, 3, 2)
        b = rand_poly(rng, RING, 3, 2)
        g = rand_poly(rng, RING, 2, 2)
        if g.is_zero() or a.is_zero() or b.is_zero():
            continue
        d = poly_gcd(a * g, b * g)
        # divisor of both, containing g
        assert divexact(a * g, d) * d == a * g
        assert divexact(b * g, d) * d == b * g
        assert divexact(d, poly_gcd(d, g)) is not None


@pytest.mark.parametrize("f_text, g_text", [
    ("t^2", "2*t + 3*u"),  # the quotient's first coefficient is not an integer
    ("t^2 + 1", "t"),  # a remainder monomial that t does not divide
    ("t*u + 1", "u + 1"),
])
def test_divexact_rejects_a_non_divisor(f_text, g_text):
    with pytest.raises(CoeffError):
        divexact(parse_poly(f_text, RING), parse_poly(g_text, RING))


def test_gcd_finds_a_factor_that_is_one_at_the_hash_point():
    # a - 10006 is 1 at a = 10007, so evaluating there alone cannot see it
    ring = ParamRing(["a"])
    a = ring.var("a")
    one = ring.one()
    f = (a - 10006 * one) * (a + one)
    g = (a - 10006 * one) * (a + 2 * one)
    assert poly_gcd(f, g) == a - 10006 * one
    assert str(RatFunc(f, g)) == "(a + 1)/(a + 2)"


def test_gcdheu_gives_up_when_an_evaluated_problem_does(monkeypatch):
    # GCDHEU gives up on a problem evaluated from this pair; retrying every
    # level after that multiplies the attempts over seven variables
    ring = ParamRing(["t", "u", "v", "w", "x", "y", "z"])
    p = parse_poly("5*t^2*u^2*v^2*w*y + 3*t*u*x^2*z^2 + w*x^2*y", ring)
    q = parse_poly("5*t^2*u^2*v^2*w*y^2 + 3*t*u*x^2*z^2 + w*x^2*y", ring)
    w2 = ring.var("w") ** 2
    heuristic = coeff._gcd_heu
    calls = []

    def capped_heuristic(*args, **kwargs):
        calls.append(None)
        assert len(calls) <= 100, "GCDHEU keeps retrying after giving up"
        return heuristic(*args, **kwargs)

    monkeypatch.setattr(coeff, "_gcd_heu", capped_heuristic)
    assert poly_gcd(w2 * p * q, w2 * q * q) == w2 * q * Fraction(1, 5)


PRS_CASES = [
    ("t", "(t - 3)*(t + 1)", "(t - 3)*(2*t^2 + 5)"),
    ("t", "(t^2 + t + 1)^2", "(t^2 + t + 1)*(t - 1)"),
    ("t, u", "(t*u - 2)*(t + u)", "(t*u - 2)*(u^2 - 3*t)"),
    ("t, u", "(t + u)^2*(t - 1/2)", "(t + u)*(u + 7)"),
    ("t, u, v", "(t*v + u - 1)*(v + 2)", "(t*v + u - 1)*(t*u - v)"),
    ("t, u, v", "(t + u + v)*(t*u*v + 1)", "(t*u*v + 1)*(t - u)^2"),
]


@pytest.mark.parametrize("names, f_text, g_text", PRS_CASES)
def test_prs_fallback_agrees_with_gcdheu(monkeypatch, names, f_text, g_text):
    ring = ParamRing([n.strip() for n in names.split(",")])
    f, g = parse_poly(f_text, ring), parse_poly(g_text, ring)
    heuristic = poly_gcd(f, g)
    assert not heuristic.is_constant()
    prs_calls = []
    prs = coeff._gcd_rec

    def counted_prs(*args):
        prs_calls.append(args)
        return prs(*args)

    monkeypatch.setattr(coeff, "_gcd_heu_entry", lambda f, g: None)
    monkeypatch.setattr(coeff, "_gcd_rec", counted_prs)
    assert poly_gcd(f, g) == heuristic
    assert prs_calls


def test_ratfunc_normalization():
    t = RING.var("t")
    r = RatFunc(t ** 2 - RING.one(), t - RING.one())
    assert r.is_polynomial()
    assert r.as_poly() == t + 1
    s = RatFunc(t, t * t)
    assert s == RatFunc(RING.one(), t)
    assert (s * t).is_one()


def test_ratfunc_hash_agrees_with_equality_at_the_hash_point():
    # values built with a common factor, including one that vanishes at
    # a = 10007, reduce to the same lowest-terms pair and hash alike
    ring = ParamRing(["a"])
    a = ring.var("a")
    one = ring.one()
    pole = RatFunc(a + 2 * one, a - 10007 * one)
    unreduced = RatFunc((a + 2 * one) * (a + one), (a - 10007 * one) * (a + one))
    assert pole == unreduced and hash(pole) == hash(unreduced)
    finite = RatFunc(a + 2 * one, a + one)
    removable = RatFunc((a + 2 * one) * (a - 10007 * one), (a + one) * (a - 10007 * one))
    assert finite == removable and hash(finite) == hash(removable)


def test_ratfunc_field_axioms():
    rng = random.Random(13)
    for _ in range(20):
        num1, num2 = rand_poly(rng, RING, 2, 2), rand_poly(rng, RING, 2, 2)
        den1, den2 = rand_poly(rng, RING, 2, 1), rand_poly(rng, RING, 2, 1)
        if den1.is_zero() or den2.is_zero():
            continue
        a, b = RatFunc(num1, den1), RatFunc(num2, den2)
        assert a + b == b + a
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a


def test_param_ring_validation():
    with pytest.raises(CoeffError):
        ParamRing(["t", "t"])
    with pytest.raises(CoeffError):
        ParamRing(["1bad"])


def test_a_parameter_is_one_name_token():
    for name in ("t", "_", "T0b", "t_1", "x2y"):
        assert ParamRing([name]).names == (name,)
    for name in ("", "t (deg 4)", "s t", "t-1", "2t", " t", "t^2", "\u00b2"):
        with pytest.raises(CoeffError, match="bad parameter name"):
            ParamRing([name])


def test_a_parameter_name_is_what_the_tokenizer_reads_as_one_name():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def accepted(s):
        try:
            ParamRing([s])
        except CoeffError:
            return False
        return True

    def one_name(s):
        try:
            toks = tokenize_poly(s)
        except CoeffError:
            return False
        return len(toks) == 2 and toks[0].kind == "name" and toks[0].value == s

    @hypothesis.settings(max_examples=3000, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.text(alphabet="tT_x09\u00b2\u216b\u00e9 -(", max_size=5))
    def check(s):
        assert accepted(s) == one_name(s)

    check()


def test_lead_ratio_divides_by_the_leading_coefficient():
    p = parse_poly("(2/3)*t*u - 4/9 + w", RING)
    n, d = p.lead_ratio()
    assert Fraction(n, d) == p.lead()[1] == Fraction(2, 3) and d > 0
    assert p.scale(d, n).lead()[1] == 1
    assert RING.const(Fraction(-5, 7)).lead_ratio() == (-5, 7)
    with pytest.raises(CoeffError):
        RING.zero().lead_ratio()


def test_cast_keeps_the_polynomial():
    p = parse_poly("(1/2)*t^2*u - w + 3", RING)
    same = ParamRing(RING.names)
    q = p.cast(same)
    assert same is not RING and q.ring is same and q.terms == p.terms
    wider = RING.extend(["z"])
    assert p.cast(wider).cast(RING) == p
