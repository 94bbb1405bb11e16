"""Exact multivariate polynomial and rational function arithmetic over Q.

This is the coefficient kernel for every path algebra in the package: all
central parameters (t, T0b, T0c, ... as well as adjoined commuting
generators like y and z) live in a ParamRing, polynomials in those
parameters are MultiPoly values with exact rational coefficients, and
RatFunc is the fraction field used to keep rewriting rules monic.

A MultiPoly is stored as integer numerators over one common denominator
(the packed monomials and integer coefficients of Monagan and Pearce,
CASC '07 and ISSAC '09).  Each monomial is one integer key: the total
degree sits in the top 64-bit field and the exponents, in ParamRing order,
in the 64-bit fields below it, so comparing keys as integers is graded-lex
order, a monomial product is one integer addition and the leading monomial
is the largest key.  A total degree must stay below 2^64; a product or
literal beyond that raises CoeffError.  `Fraction` appears only at the
boundary: the parser, the constructor and the read-only `terms` view.

Everything here is immutable and exact; there is no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _math_gcd, lcm as _math_lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Exponents = Tuple[int, ...]

_FIELD = 64
_MASK = (1 << _FIELD) - 1


class CoeffError(ValueError):
    """Raised for malformed coefficient-level input (bad names, syntax).

    `position` is the offset (from 0) of a syntax error in the parsed text.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class DivisionByZeroError(ZeroDivisionError):
    """Division by a zero polynomial or rational function."""


class ParamRing:
    """An ordered list of distinct commuting parameter names.

    A name is what the polynomial syntax reads as one name token: a letter
    or `_`, then letters, digits or `_`.
    """

    __slots__ = ("names", "_index", "_shifts", "_deg_shift", "_key_limit", "_zero", "_one")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise CoeffError("parameter names must be distinct: %r" % (names,))
        for n in names:
            if not n or _name_end(n, 0) != len(n):
                raise CoeffError("bad parameter name %r" % n)
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        width = len(names)
        # exponent i sits in field width-1-i, the total degree above them all
        self._shifts = tuple(_FIELD * (width - 1 - i) for i in range(width))
        self._deg_shift = _FIELD * width
        # every key of a total degree below 2^64 is below this
        self._key_limit = 1 << (_FIELD * (width + 1))
        self._zero = _reduced(self, {}, 1)
        self._one = _reduced(self, {0: 1}, 1)

    def __eq__(self, other):
        return isinstance(other, ParamRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "ParamRing(%s)" % ", ".join(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CoeffError("undeclared parameter %r (declared: %s)" % (name, ", ".join(self.names) or "none"))

    def _pack(self, exp: Exponents) -> int:
        deg = sum(exp)
        if deg > _MASK:
            raise CoeffError("total degree %d exceeds the limit 2^64 - 1" % deg)
        key = deg << self._deg_shift
        for e, s in zip(exp, self._shifts):
            key |= e << s
        return key

    def _unpack(self, key: int) -> Exponents:
        return tuple([(key >> s) & _MASK for s in self._shifts])

    def zero(self) -> "MultiPoly":
        return self._zero

    def one(self) -> "MultiPoly":
        return self._one

    def const(self, c) -> "MultiPoly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if not c:
            return self._zero
        return _reduced(self, {0: c.numerator}, c.denominator)

    def var(self, name: str) -> "MultiPoly":
        i = self.index(name)
        exp = [0] * len(self.names)
        exp[i] = 1
        return _reduced(self, {self._pack(exp): 1}, 1)

    def extend(self, extra: Sequence[str]) -> "ParamRing":
        """Ring with additional parameters appended after the current ones."""
        return ParamRing(self.names + tuple(extra))


def _grlex_key(exp: Exponents):
    # graded lex, the order that packed monomial keys compare in as integers
    return (sum(exp), exp)


class MultiPoly:
    """A polynomial over Q in the parameters of a ParamRing.

    The value is num/den: num maps packed monomial keys (see the module
    docstring) to nonzero ints, and den is a positive int coprime to the
    gcd of num's values.  The form is canonical, so equality and hashing
    are structural.  `terms` is the read-only {exponent tuple: Fraction}
    view of the same polynomial, built on each access.
    """

    __slots__ = ("ring", "num", "den", "_hash")

    def __init__(self, ring: ParamRing, terms: Mapping[Exponents, Fraction]):
        den = _math_lcm(*[c.denominator for c in terms.values()])
        pack = ring._pack
        self.ring = ring
        self.num = {pack(e): c.numerator * (den // c.denominator)
                    for e, c in terms.items() if c}
        self.den = den if self.num else 1

    @property
    def terms(self) -> Dict[Exponents, Fraction]:
        unpack, den = self.ring._unpack, self.den
        return {unpack(k): Fraction(c, den) for k, c in self.num.items()}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def coerce(ring: ParamRing, value) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            if value.ring != ring:
                return value.cast(ring)
            return value
        return ring.const(value)

    def cast(self, ring: ParamRing) -> "MultiPoly":
        """Re-express in another ring containing all used parameters."""
        pos = [ring.index(n) if n in ring._index else -1 for n in self.ring.names]
        unpack = self.ring._unpack
        num: Dict[int, int] = {}
        width = len(ring.names)
        for k, c in self.num.items():
            new = [0] * width
            for i, e in enumerate(unpack(k)):
                if e:
                    if pos[i] < 0:
                        raise CoeffError("parameter %r missing from target ring" % self.ring.names[i])
                    new[pos[i]] = e
            num[ring._pack(new)] = c
        return _reduced(ring, num, self.den)

    # -- predicates & accessors ------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        # false for zero only, as for int and Fraction
        return bool(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and len(self.num) == 1 and self.num.get(0) == 1

    def is_constant(self) -> bool:
        # the constant monomial is key 0, the smallest key
        return not self.num or (len(self.num) == 1 and 0 in self.num)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise CoeffError("not a constant: %s" % self)
        return Fraction(self.num.get(0, 0), self.den)

    def total_degree(self) -> int:
        if not self.num:
            return -1
        return max(self.num) >> self.ring._deg_shift

    def lead(self) -> Tuple[Exponents, Fraction]:
        """Leading (exponent, coefficient) under graded lex."""
        if not self.num:
            raise CoeffError("zero polynomial has no leading term")
        key = max(self.num)
        return self.ring._unpack(key), Fraction(self.num[key], self.den)

    def lead_ratio(self) -> Tuple[int, int]:
        """Leading coefficient as ints (n, d), d > 0, without a Fraction;
        `self.scale(d, n)` divides by it."""
        if not self.num:
            raise CoeffError("zero polynomial has no leading term")
        return self.num[max(self.num)], self.den

    def degree_in(self, name: str) -> int:
        s = self.ring._shifts[self.ring.index(name)]
        if not self.num:
            return -1
        return max((k >> s) & _MASK for k in self.num)

    # -- arithmetic -------------------------------------------------------

    def scale(self, n: int, d: int = 1) -> "MultiPoly":
        """self * n/d for integers n and d != 0."""
        if not n or not self.num:
            return self.ring._zero
        if d < 0:
            n, d = -n, -d
        return _reduced(self.ring, {k: c * n for k, c in self.num.items()}, self.den * d)

    def _add(self, other, sign: int) -> "MultiPoly":
        if other.__class__ is not MultiPoly or other.ring is not self.ring:
            other = MultiPoly.coerce(self.ring, other)
        b = other.num
        if not b:
            return self
        a, da, db = self.num, self.den, other.den
        if da == db:
            den = da
            out = dict(a)
        else:
            g = _math_gcd(da, db)
            den = da * (db // g)
            out = {k: c * (db // g) for k, c in a.items()}
            sign *= da // g
        get = out.get
        for k, c in b.items():
            s = get(k, 0) + sign * c
            if s:
                out[k] = s
            else:
                del out[k]
        return _reduced(self.ring, out, den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.ring, {k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return MultiPoly.coerce(self.ring, other) - self

    def __mul__(self, other):
        if other.__class__ is not MultiPoly or other.ring is not self.ring:
            other = MultiPoly.coerce(self.ring, other)
        ring = self.ring
        a, b = self.num, other.num
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return ring._zero
        # the largest key of the product is the sum of the largest keys
        if max(a) + max(b) >= ring._key_limit:
            raise CoeffError("total degree of a product exceeds the limit 2^64 - 1")
        out = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        return _reduced(ring, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise CoeffError("negative power of a polynomial; use RatFunc")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.ring == other.ring and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.ring, self.den, frozenset(self.num.items())))
            return self._hash

    # -- substitution ------------------------------------------------------

    def substitute(self, mapping: Mapping[str, "MultiPoly"], ring: Optional[ParamRing] = None) -> "MultiPoly":
        """Simultaneous substitution name -> polynomial.

        Unmapped names are retained (they must exist in the target ring).
        """
        if ring is None:
            rings = [v.ring for v in mapping.values() if isinstance(v, MultiPoly)]
            ring = rings[0] if rings else self.ring
        for name in mapping:
            self.ring.index(name)  # validate
        images: List[MultiPoly] = []
        for n in self.ring.names:
            if n in mapping:
                images.append(MultiPoly.coerce(ring, mapping[n]))
            else:
                images.append(ring.var(n))
        out = ring.zero()
        unpack = self.ring._unpack
        for k in sorted(self.num):
            term = _reduced(ring, {0: self.num[k]}, self.den)
            for i, e in enumerate(unpack(k)):
                if e:
                    term = term * images[i] ** e
            out = out + term
        return out

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "MultiPoly(%s)" % format_poly(self)


_new = object.__new__


def _reduced(ring: ParamRing, num: Dict[int, int], den: int) -> MultiPoly:
    """num/den for den > 0, with the common factor of den and num removed."""
    if den != 1:
        g = _math_gcd(den, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    p = _new(MultiPoly)
    p.ring = ring
    p.num = num
    p.den = den
    return p


def _fmt_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def format_poly(p: MultiPoly) -> str:
    """Canonical text form; graded-lex descending, `+ - * ^` syntax."""
    if not p.num:
        return "0"
    names, unpack = p.ring.names, p.ring._unpack
    parts: List[str] = []
    for key in sorted(p.num, reverse=True):
        c = Fraction(p.num[key], p.den)
        exp = unpack(key)
        factors = []
        for n, e in zip(names, exp):
            if e == 1:
                factors.append(n)
            elif e > 1:
                factors.append("%s^%d" % (n, e))
        if not factors:
            body = _fmt_coeff(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_fmt_coeff(abs(c))] + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Tok:
    def __init__(self, kind, value, pos):
        self.kind, self.value, self.pos = kind, value, pos

    def describe(self) -> str:
        return "end of input" if self.kind == "end" else "token %r" % (self.value,)


def _name_end(text: str, i: int) -> int:
    """End of the name that starts at offset i of `text`: a letter or `_`,
    then letters, digits or `_`; i itself when no name starts there."""
    n = len(text)
    if i < n and (text[i].isalpha() or text[i] == "_"):
        i += 1
        while i < n and (text[i].isalnum() or text[i] == "_"):
            i += 1
    return i


def tokenize_poly(text: str) -> List[_Tok]:
    toks: List[_Tok] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":  # not str.isdigit: it holds for "²", which int() refuses
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and "0" <= text[j + 1] <= "9":
                k = j + 1
                while k < n and "0" <= text[k] <= "9":
                    k += 1
                den = int(text[j + 1:k])
                if not den:
                    raise CoeffError("zero denominator at position %d" % (j + 1), j + 1)
                toks.append(_Tok("num", Fraction(int(text[i:j]), den), i))
                i = k
            else:
                toks.append(_Tok("num", Fraction(int(text[i:j])), i))
                i = j
            continue
        j = _name_end(text, i)
        if j > i:
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        raise CoeffError("unexpected character %r at position %d" % (ch, i), i)
    toks.append(_Tok("end", None, n))
    return toks


class _PolyParser:
    """Recursive-descent parser for `+ - * ^`, rationals p/q, parentheses."""

    def __init__(self, toks: List[_Tok], ring: ParamRing):
        self.toks = toks
        self.i = 0
        self.ring = ring

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        t = self.toks[self.i]
        if kind is not None and t.kind != kind:
            raise CoeffError("expected %s at position %d, found %s" % (kind, t.pos, t.describe()),
                             t.pos)
        self.i += 1
        return t

    def parse(self) -> MultiPoly:
        p = self.expr()
        if self.peek().kind != "end":
            t = self.peek()
            raise CoeffError("trailing input at position %d: %r" % (t.pos, t.value), t.pos)
        return p

    def expr(self) -> MultiPoly:
        sign = 1
        while self.peek().kind in "+-":
            if self.take().kind == "-":
                sign = -sign
        out = self.term() * sign
        while self.peek().kind in "+-":
            sign = 1
            while self.peek().kind in "+-":
                if self.take().kind == "-":
                    sign = -sign
            out = out + self.term() * sign
        return out

    def term(self) -> MultiPoly:
        out = self.factor()
        while self.peek().kind in ("*",):
            self.take()
            out = out * self.factor()
        return out

    def factor(self) -> MultiPoly:
        base = self.atom()
        while self.peek().kind == "^":
            self.take()
            if self.peek().kind == "-":
                pos = self.peek().pos
                raise CoeffError("negative exponent at position %d" % pos, pos)
            e = self.take("num").value
            if e.denominator != 1:
                raise CoeffError("exponents must be nonnegative integers")
            base = base ** int(e)
        return base

    def atom(self) -> MultiPoly:
        t = self.peek()
        if t.kind == "num":
            self.take()
            return self.ring.const(t.value)
        if t.kind == "name":
            self.take()
            return self.ring.var(t.value)
        if t.kind == "(":
            self.take()
            p = self.expr()
            self.take(")")
            return p
        raise CoeffError("unexpected %s at position %d" % (t.describe(), t.pos), t.pos)


def parse_poly(text: str, ring: ParamRing) -> MultiPoly:
    return _PolyParser(tokenize_poly(text), ring).parse()


# ---------------------------------------------------------------------------
# gcd / exact division (needed to keep RatFunc canonical)
# ---------------------------------------------------------------------------

def _vars_used(p: MultiPoly) -> List[int]:
    unpack = p.ring._unpack
    return sorted({i for k in p.num for i, e in enumerate(unpack(k)) if e})


def _as_univariate(p: MultiPoly, var: int) -> Dict[int, MultiPoly]:
    """View p as a polynomial in variable `var` with MultiPoly coefficients."""
    s, top = p.ring._shifts[var], p.ring._deg_shift
    out: Dict[int, Dict[int, int]] = {}
    for k, c in p.num.items():
        d = (k >> s) & _MASK
        out.setdefault(d, {})[k - (d << s) - (d << top)] = c
    return {d: _reduced(p.ring, t, p.den) for d, t in out.items()}


def _from_univariate(ring: ParamRing, var: int, coeffs: Dict[int, MultiPoly]) -> MultiPoly:
    s, top = ring._shifts[var], ring._deg_shift
    den = _math_lcm(*[poly.den for poly in coeffs.values()])
    num: Dict[int, int] = {}
    for d, poly in coeffs.items():
        m = den // poly.den
        for k, c in poly.num.items():
            num[k + (d << s) + (d << top)] = c * m
    return _reduced(ring, num, den)


def divexact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f / g; raises if g does not divide f.

    g is made primitive first: by Gauss's lemma a primitive divisor of f
    leaves an integer quotient of f's numerators, so the division runs on
    integers and every quotient coefficient must divide exactly.  The
    remainder's monomials wait in a max-heap, so each step finds its leading
    term without a scan.
    """
    if g.is_zero():
        raise DivisionByZeroError("polynomial division by zero")
    if f.is_zero():
        return f
    if g.is_constant():
        n, d = g.lead_ratio()
        return f.scale(d, n)
    shifts = f.ring._shifts
    cont = _math_gcd(*g.num.values())
    lead = max(g.num)
    lc = g.num[lead] // cont
    tail = [(k, c // cont) for k, c in g.num.items() if k != lead]
    lead_exps = [(s, (lead >> s) & _MASK) for s in shifts]
    rem = dict(f.num)
    heap = [-k for k in rem]
    heapify(heap)
    q: Dict[int, int] = {}
    while heap:
        k = -heappop(heap)
        c = rem.pop(k, 0)
        if not c:
            continue  # cancelled, or a second heap entry of a key already done
        qc, r = divmod(c, lc)
        if r or any((k >> s) & _MASK < e for s, e in lead_exps):
            raise CoeffError("inexact polynomial division")
        qk = k - lead
        q[qk] = qc
        for tk, tc in tail:
            kk = qk + tk
            v = rem.get(kk)
            if v is None:
                rem[kk] = -qc * tc
                heappush(heap, -kk)
                continue
            v -= qc * tc
            if v:
                rem[kk] = v
            else:
                del rem[kk]
    # f/g = (F/df) / (cont*G'/dg) = (F/G') * dg / (df*cont)
    if g.den != 1:
        q = {k: c * g.den for k, c in q.items()}
    return _reduced(f.ring, q, f.den * cont)


def _monic(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    n, d = p.lead_ratio()
    return p if n == d else p.scale(d, n)


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd over Q[params], normalized monic under graded lex.

    Three paths, each exact and each kept because it pays:

    - zero and constant operands return at once;
    - when one operand is a single term the gcd is the common monomial
      (``_monomial_gcd_fast``): the commonest non-constant call in
      rewriting, answered here far more cheaply than by GCDHEU;
    - otherwise the heuristic evaluation gcd GCDHEU (Char, Geddes and
      Gonnet: integer evaluation and balanced base-xi reconstruction, every
      candidate verified by exact division), which stays fast on the
      eight-parameter contents of fraction-free rules.  Only when it gives
      up does the primitive-PRS recursion ``_gcd_rec`` run: the one path
      that always answers, far too slow on those contents to run alone.
      With GCDHEU bypassed, the random presentations of
      tests/test_chain_criterion.py ran over 19 min instead of 5 s (168 s
      with a PRS that also strips integer contents).
    """
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    mono = _monomial_gcd_fast(f, g)
    if mono is not None:
        return mono
    result = _gcd_heu_entry(f, g)
    if result is None:
        used = sorted(set(_vars_used(f)) | set(_vars_used(g)))
        result = _monic(_gcd_rec(f, g, used))
    return result


def _monomial_gcd_fast(f: MultiPoly, g: MultiPoly) -> Optional[MultiPoly]:
    """Exact gcd when one operand is a single term: the common monomial."""
    if len(f.num) != 1 and len(g.num) != 1:
        return None
    ring = f.ring
    exps = [ring._unpack(k) for p in (f, g) for k in p.num]
    return MultiPoly(ring, {tuple(map(min, zip(*exps))): 1})


def _int_clear(p: MultiPoly) -> Dict[Exponents, int]:
    """The integer numerators of p (gcd is only defined up to units)."""
    unpack = p.ring._unpack
    return {unpack(k): c for k, c in p.num.items()}


def _gcd_heu_entry(f: MultiPoly, g: MultiPoly) -> Optional[MultiPoly]:
    ring = f.ring
    fz = _int_clear(f)
    gz = _int_clear(g)
    used = sorted({i for e in list(fz) + list(gz) for i, k in enumerate(e) if k})
    h = _gcd_heu(fz, gz, used, ring)
    if h is None:
        return None
    return _monic(MultiPoly(ring, h))


def _heu_height(p: Dict[Exponents, int]) -> int:
    return max(abs(c) for c in p.values()) if p else 0


def _heu_eval(p: Dict[Exponents, int], var: int, xi: int) -> Dict[Exponents, int]:
    deg = 0
    for e in p:
        if e[var] > deg:
            deg = e[var]
    pows = [1] * (deg + 1)
    for i in range(1, deg + 1):
        pows[i] = pows[i - 1] * xi
    out: Dict[Exponents, int] = {}
    for e, c in p.items():
        e2 = e[:var] + (0,) + e[var + 1:]
        out[e2] = out.get(e2, 0) + c * pows[e[var]]
    return {e: c for e, c in out.items() if c}


def _heu_content(p: Dict[Exponents, int]) -> int:
    g = 0
    for c in p.values():
        g = _math_gcd(g, c)
        if g == 1:
            return 1
    return g or 1


def _heu_divides(h: Dict[Exponents, int], p: Dict[Exponents, int], ring: ParamRing) -> bool:
    try:
        divexact(MultiPoly(ring, p), MultiPoly(ring, h))
        return True
    except (CoeffError, DivisionByZeroError):
        return False


def _gcd_heu(fz, gz, used, ring, depth=0):
    """Heuristic gcd on integer term dicts; None when attempts run out.

    Integer contents are stripped first (Gauss), so evaluation points stay
    small; candidates are verified by exact trial division at every level.
    A level gives up as soon as the problem evaluated from it does.
    """
    cf = _heu_content(fz)
    cg = _heu_content(gz)
    cc = _math_gcd(cf, cg)
    if cf > 1:
        fz = {e: c // cf for e, c in fz.items()}
    if cg > 1:
        gz = {e: c // cg for e, c in gz.items()}
    used = [v for v in used
            if any(e[v] for e in fz) or any(e[v] for e in gz)]
    if not used:
        return {(0,) * len(ring.names): cc}
    # evaluate high-degree variables first, while the evaluation point is
    # still small; deep recursion levels with huge xi then face low degrees
    var = max(used, key=lambda v: (min(_heu_degree(fz, v), _heu_degree(gz, v)), v))
    rest = [v for v in used if v != var]
    if _heu_degree(fz, var) == 0 or _heu_degree(gz, var) == 0:
        # var occurs in only one operand: the gcd cannot involve it, so
        # replace that operand by the gcd of its var-coefficient slices
        fa = fz if _heu_degree(fz, var) == 0 else _heu_content_wrt(fz, var, rest, ring, depth)
        ga = gz if _heu_degree(gz, var) == 0 else _heu_content_wrt(gz, var, rest, ring, depth)
        if fa is None or ga is None:
            return None
        h = _gcd_heu(fa, ga, rest, ring, depth + 1)
        if h is None:
            return None
        return {e: c * cc for e, c in h.items()}
    xi = 2 * min(_heu_height(fz), _heu_height(gz)) + 29
    for _ in range(6):
        if xi.bit_length() * max(_heu_degree(fz, var), _heu_degree(gz, var)) > 150000:
            return None
        fe = _heu_eval(fz, var, xi)
        ge = _heu_eval(gz, var, xi)
        if fe and ge:
            gamma = _gcd_heu(fe, ge, rest, ring, depth + 1)
            if gamma is None:
                # retrying here after a failure below would multiply the
                # attempts level by level (6^depth); hand over to PRS
                return None
            h = _heu_reconstruct(gamma, var, xi)
            cont = _heu_content(h)
            if cont > 1:
                h = {e: c // cont for e, c in h.items()}
            if h and _heu_divides(h, fz, ring) and _heu_divides(h, gz, ring):
                return {e: c * cc for e, c in h.items()}
        xi = xi * 73794 // 27011 + 7
    return None


def _heu_content_wrt(p: Dict[Exponents, int], var: int, rest, ring, depth):
    """gcd of the var-coefficient slices of p (the content w.r.t. var)."""
    slices: Dict[int, Dict[Exponents, int]] = {}
    for e, c in p.items():
        slices.setdefault(e[var], {})[e[:var] + (0,) + e[var + 1:]] = c
    acc = None
    for d in sorted(slices):
        if acc is None:
            acc = slices[d]
        else:
            acc = _gcd_heu(acc, slices[d], list(rest), ring, depth + 1)
            if acc is None:
                return None
        if len(acc) == 1 and not any(next(iter(acc))):
            break  # constant content already
    return acc


def _heu_degree(p: Dict[Exponents, int], var: int) -> int:
    return max((e[var] for e in p), default=0)


def _heu_reconstruct(gamma: Dict[Exponents, int], var: int, xi: int) -> Dict[Exponents, int]:
    """Balanced base-xi digits of gamma, reading off the var exponents."""
    out: Dict[Exponents, int] = {}
    current = dict(gamma)
    k = 0
    half = xi // 2
    while current and k < 4000:
        nxt: Dict[Exponents, int] = {}
        for e, c in current.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                e2 = e[:var] + (k,) + e[var + 1:]
                out[e2] = r
            q = (c - r) // xi
            if q:
                nxt[e] = q
        current = nxt
        k += 1
    return out


def _content(coeffs: Iterable[MultiPoly], used: List[int]) -> MultiPoly:
    it = iter(coeffs)
    acc = next(it)
    for c in it:
        if acc.is_constant() and not acc.is_zero():
            return acc.ring.one()
        acc = _gcd_rec(acc, c, used)
    if acc.is_constant() and not acc.is_zero():
        return acc.ring.one()
    return acc


def _gcd_rec(f: MultiPoly, g: MultiPoly, used: List[int]) -> MultiPoly:
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    var = max(set(_vars_used(f)) | set(_vars_used(g)))
    rest = [v for v in used if v != var]
    fu = _as_univariate(f, var)
    gu = _as_univariate(g, var)
    if max(fu) == 0 or max(gu) == 0:
        # one of them does not involve var after all
        return _gcd_rec(_content(fu.values(), rest), _content(gu.values(), rest), rest)
    cf = _content(fu.values(), rest)
    cg = _content(gu.values(), rest)
    cont = _gcd_rec(cf, cg, rest)
    fp = {d: divexact(c, cf) for d, c in fu.items()}
    gp = {d: divexact(c, cg) for d, c in gu.items()}
    a, b = fp, gp
    if max(a) < max(b):
        a, b = b, a
    ring = f.ring
    while True:
        r = _pseudo_rem(a, b, var, ring)
        if not r:
            break
        rc = _content(r.values(), rest)
        a, b = b, {d: divexact(c, rc) for d, c in r.items()}
    result = cont * _from_univariate(ring, var, b)
    return result


def _pseudo_rem(a: Dict[int, MultiPoly], b: Dict[int, MultiPoly], var: int, ring: ParamRing) -> Dict[int, MultiPoly]:
    da, db = max(a), max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        # lb * r - lr * x^(dr-db) * b
        new: Dict[int, MultiPoly] = {}
        for d, c in r.items():
            new[d] = c * lb
        for d, c in b.items():
            t = new.get(d + dr - db, ring.zero()) - lr * c
            new[d + dr - db] = t
        r = {d: c for d, c in new.items() if not c.is_zero()}
    return r


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """num/den in lowest terms with a monic denominator (graded lex).

    Every constructor and operation keeps this invariant; `_normalized`
    marks the few places whose pair is canonical by construction.  The
    form is canonical, so equality and hashing compare (num, den) and a
    polynomial is exactly a value with den == 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Optional[MultiPoly] = None, _normalized=False):
        ring = num.ring
        if den is None:
            den = ring.one()
        if den.is_zero():
            raise DivisionByZeroError("zero denominator")
        if not _normalized:
            num, den = _normalize_frac(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def coerce(ring: ParamRing, value) -> "RatFunc":
        if isinstance(value, RatFunc):
            if value.ring != ring:
                # still coprime, but another name order may change den's lead
                num, den = value.num.cast(ring), value.den.cast(ring)
                n, d = den.lead_ratio()
                return RatFunc(num.scale(d, n), den.scale(d, n), _normalized=True)
            return value
        if isinstance(value, MultiPoly):
            return RatFunc(MultiPoly.coerce(ring, value))
        return RatFunc(ring.const(value))

    @property
    def ring(self) -> ParamRing:
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def as_poly(self) -> MultiPoly:
        if not self.den.is_one():
            raise CoeffError("not a polynomial: %s" % self)
        return self.num

    def __add__(self, other):
        other = RatFunc.coerce(self.ring, other)
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num + other.num, None, _normalized=True)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        num = self.num * other.den + other.num * self.den
        return RatFunc(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-RatFunc.coerce(self.ring, other))

    def __rsub__(self, other):
        return RatFunc.coerce(self.ring, other) - self

    def __mul__(self, other):
        other = RatFunc.coerce(self.ring, other)
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num * other.num, None, _normalized=True)
        # cross-cancel to keep intermediate products small
        n1, d2 = self.num, other.den
        if not d2.is_one():
            g = poly_gcd(n1, d2)
            if not g.is_one():
                n1, d2 = divexact(n1, g), divexact(d2, g)
        n2, d1 = other.num, self.den
        if not d1.is_one():
            g = poly_gcd(n2, d1)
            if not g.is_one():
                n2, d1 = divexact(n2, g), divexact(d1, g)
        return RatFunc(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.num.is_zero():
            raise DivisionByZeroError("inverting zero")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        other = RatFunc.coerce(self.ring, other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return RatFunc.coerce(self.ring, other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = RatFunc.coerce(self.ring, other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def substitute(self, mapping: Mapping[str, MultiPoly], ring: Optional[ParamRing] = None) -> "RatFunc":
        num = self.num.substitute(mapping, ring)
        den = self.den.substitute(mapping, ring)
        if den.is_zero():
            raise DivisionByZeroError("substitution sends denominator to zero")
        return RatFunc(num, den)

    def __str__(self):
        if self.den.is_one():
            return format_poly(self.num)
        return "(%s)/(%s)" % (format_poly(self.num), format_poly(self.den))

    def __repr__(self):
        return "RatFunc(%s)" % str(self)


def _normalize_frac(num: MultiPoly, den: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    if num.is_zero():
        return num, den.ring.one()
    if den.is_one():
        return num, den
    g = poly_gcd(num, den)
    if not g.is_one():
        num = divexact(num, g)
        den = divexact(den, g)
    n, d = den.lead_ratio()
    if n != d:
        num = num.scale(d, n)
        den = den.scale(d, n)
    return num, den


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def elementary_symmetric(k: int, values: Sequence[MultiPoly]) -> MultiPoly:
    """sigma_k of the given polynomials; 1 <= k <= len(values)."""
    n = len(values)
    if not 1 <= k <= n:
        raise CoeffError("elementary_symmetric: k=%d out of range 1..%d" % (k, n))
    ring = values[0].ring
    # column j of the dynamic table holds sigma_j of the prefix seen so far
    sig: List[MultiPoly] = [ring.one()] + [ring.zero()] * k
    for v in values:
        for j in range(k, 0, -1):
            sig[j] = sig[j] + sig[j - 1] * v
    return sig[k]
