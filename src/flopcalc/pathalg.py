"""Quivers, vertex-typed paths, and elements of path algebras.

A path algebra element is a finite sum of (rational-function coefficient,
path) pairs.  Paths are typed by source and target vertex, with the empty
path at v acting as the idempotent e_v, so non-composable products are zero
by construction rather than by bookkeeping.

A presentation derived from another (the contraction algebra A/Ae0A, a
specialisation, the central fibre) maps its relations along `algebra_map`.

The module also owns the line-oriented presentation file format::

    name: length-2
    params: t, T0b, T0c, T0d
    vertices: 0, 4
    arrows: a: 0 -> 4, A: 4 -> 0, b: 4 -> 4 (deg 1), c: 4 -> 4, d: 4 -> 4
    relations: a*A - t*e0 ; b*b - T0b*e4
    relations: A*a + b + c + d - (1/2)*t*e4

`e<v>` denotes the idempotent at vertex v, `*` is (noncommutative) product,
`#` starts a comment.  A parameter is a name (`coeff.ParamRing`) that no
arrow or idempotent has; only arrows carry a degree.  `name`, `precedence`
and `gb_degree` are given once.  parse -> print -> parse is the identity.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .coeff import (
    CoeffError,
    ParamRing,
    RatFunc,
    _PolyParser,
    tokenize_poly,
)


class PathAlgebraError(ValueError):
    pass


# longest path a power may build: without a cap, "b^99999999999" for a loop
# b would double its path on every squaring until memory runs out
MAX_POWER_DEGREE = 1 << 16


def _check_power_degree(degree: int) -> None:
    if degree > MAX_POWER_DEGREE:
        raise PathAlgebraError("a power of path degree up to %d exceeds the limit %d"
                               % (degree, MAX_POWER_DEGREE))


class ParseError(PathAlgebraError):
    """Malformed input; `line` and `column` (both from 1) locate it when known,
    and `message` is the text without them."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        where = []
        if line is not None:
            where.append("line %d" % line)
        if column is not None:
            where.append("column %d" % column)
        super().__init__(message + (" (%s)" % ", ".join(where) if where else ""))
        self.line = line
        self.column = column


class EntryError(PathAlgebraError):
    """A bad arrow given to `Quiver`, or a bad parameter name of an
    `AlgebraPresentation`; `index` is its position in that list."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class Arrow:
    __slots__ = ("name", "source", "target", "degree", "index")

    def __init__(self, name: str, source: str, target: str, degree: int = 1, index: int = -1):
        self.name = name
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.index = index

    def __repr__(self):
        return "Arrow(%s: %s -> %s)" % (self.name, self.source, self.target)


class Quiver:
    """Ordered vertices plus named arrows with source/target and degree,
    given as (name, source, target) or (name, source, target, degree)."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Tuple], name: str = ""):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise PathAlgebraError("vertex ids must be distinct")
        vset = set(self.vertices)
        self.arrows: Tuple[Arrow, ...] = ()
        built = []
        names = set()
        for i, spec in enumerate(arrows):
            deg = spec[3] if len(spec) > 3 else 1
            a = Arrow(spec[0], str(spec[1]), str(spec[2]), deg, i)
            if a.name in names:
                raise EntryError("duplicate arrow name %r" % a.name, i)
            if a.degree < 1:
                raise EntryError("arrow %r must have positive degree" % a.name, i)
            if a.source not in vset or a.target not in vset:
                raise EntryError("arrow %r has undeclared endpoint" % a.name, i)
            names.add(a.name)
            built.append(a)
        self.arrows = tuple(built)
        self.name = name
        self._by_name = {a.name: a for a in self.arrows}

    def arrow(self, name: str) -> Arrow:
        try:
            return self._by_name[name]
        except KeyError:
            raise PathAlgebraError("undeclared arrow %r" % name)

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and [(a.name, a.source, a.target, a.degree) for a in self.arrows]
            == [(a.name, a.source, a.target, a.degree) for a in other.arrows]
        )

    def __hash__(self):
        return hash((self.vertices, tuple((a.name, a.source, a.target, a.degree) for a in self.arrows)))

    def __repr__(self):
        return "Quiver(vertices=%r, arrows=%r)" % (list(self.vertices), [a.name for a in self.arrows])


class Path:
    """A composable arrow word; the empty word at v is the idempotent e_v."""

    __slots__ = ("source", "target", "arrows", "degree", "_hash")

    def __init__(self, quiver: Quiver, source: str, arrows: Tuple[int, ...], _check: bool = True,
                 _degree: Optional[int] = None):
        self.arrows = arrows
        if arrows:
            qa = quiver.arrows
            if _check:
                at = source
                for i in arrows:
                    a = qa[i]
                    if a.source != at:
                        raise PathAlgebraError("non-composable arrow sequence")
                    at = a.target
            self.source = source
            self.target = qa[arrows[-1]].target
            # a caller that splices words passes the degree it already knows
            self.degree = sum(qa[i].degree for i in arrows) if _degree is None else _degree
        else:
            self.source = source
            self.target = source
            self.degree = 0
        self._hash = hash((self.source, self.arrows))

    def __eq__(self, other):
        return (
            isinstance(other, Path)
            and self.source == other.source
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.arrows)

    def format(self, quiver: Quiver) -> str:
        if not self.arrows:
            return "e%s" % self.source
        return "*".join(quiver.arrows[i].name for i in self.arrows)

    def __repr__(self):
        return "Path(%s->%s, %r)" % (self.source, self.target, self.arrows)


def idempotent_path(quiver: Quiver, vertex: str) -> Path:
    vertex = str(vertex)
    if vertex not in quiver.vertices:
        raise PathAlgebraError("undeclared vertex %r" % vertex)
    return Path(quiver, vertex, ())


def arrow_path(quiver: Quiver, name: str) -> Path:
    a = quiver.arrow(name)
    return Path(quiver, a.source, (a.index,), _check=False)


def compose(quiver: Quiver, p: Path, q: Path) -> Optional[Path]:
    """Concatenation p then q; None encodes the formal zero."""
    if p.target != q.source:
        return None
    if not p.arrows:
        return q
    if not q.arrows:
        return p
    return Path(quiver, p.source, p.arrows + q.arrows, _check=False)


class MonomialOrder:
    """Degree-lex over an arrow precedence list (earlier name = greater).

    Words are compared by (total degree, length, letters); the letter
    comparison uses the precedence ranks, so the order is total on
    composable words, multiplicative, and well founded.  The letters are
    packed into one integer, `digits`: see `key`.
    """

    def __init__(self, quiver: Quiver, precedence: Optional[Sequence[str]] = None):
        self.quiver = quiver
        if precedence is None:
            precedence = [a.name for a in quiver.arrows]
        precedence = list(precedence)
        if sorted(precedence) != sorted(a.name for a in quiver.arrows):
            raise PathAlgebraError("precedence must list every arrow exactly once")
        self.precedence = tuple(precedence)
        n = len(precedence)
        rank = {}
        for pos, name in enumerate(precedence):
            rank[quiver.arrow(name).index] = n - pos  # earlier in list = larger rank
        self._rank = tuple(rank[i] for i in range(n))
        self.base = n + 1

    def key(self, path: Path) -> Tuple[int, int, int]:
        """(degree, length, digits) of a path.

        `digits` reads the word's precedence ranks 1..n as the digits of
        one base-(n+1) integer, first arrow most significant, and is 0 for
        an idempotent.  No digit is 0, so the digits determine the word;
        at equal length, comparing them is the lexicographic comparison of
        the rank sequences.  A subword's digits are a slice of the word's:
        `ncgb` splices words by integer arithmetic on them.
        """
        r, base = self._rank, self.base
        digits = 0
        for i in path.arrows:
            digits = digits * base + r[i]
        return (path.degree, len(path.arrows), digits)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.quiver == other.quiver
            and self.precedence == other.precedence
        )

    def __repr__(self):
        return "MonomialOrder(deglex; %s)" % ", ".join(self.precedence)


class Element:
    """Finite sum of coefficient*path terms in a fixed (quiver, params) pair."""

    __slots__ = ("quiver", "params", "terms")

    def __init__(self, quiver: Quiver, params: ParamRing, terms: Optional[Dict[Path, RatFunc]] = None):
        self.quiver = quiver
        self.params = params
        self.terms = terms or {}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(quiver: Quiver, params: ParamRing) -> "Element":
        return Element(quiver, params, {})

    @staticmethod
    def from_path(quiver: Quiver, params: ParamRing, path: Path, coeff=1) -> "Element":
        c = RatFunc.coerce(params, coeff)
        if c.is_zero():
            return Element(quiver, params, {})
        return Element(quiver, params, {path: c})

    @staticmethod
    def idempotent(quiver: Quiver, params: ParamRing, vertex: str) -> "Element":
        return Element.from_path(quiver, params, idempotent_path(quiver, vertex))

    @staticmethod
    def arrow(quiver: Quiver, params: ParamRing, name: str) -> "Element":
        return Element.from_path(quiver, params, arrow_path(quiver, name))

    @staticmethod
    def identity(quiver: Quiver, params: ParamRing) -> "Element":
        out = Element.zero(quiver, params)
        for v in quiver.vertices:
            out = out + Element.idempotent(quiver, params, v)
        return out

    def _compatible(self, other: "Element"):
        if self.quiver != other.quiver or self.params != other.params:
            raise PathAlgebraError("elements belong to different algebras")

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(p.degree for p in self.terms)

    def endpoints(self) -> Optional[Tuple[str, str]]:
        """(source, target) if endpoint homogeneous, else None."""
        eps = {(p.source, p.target) for p in self.terms}
        if len(eps) == 1:
            return next(iter(eps))
        return None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._compatible(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            s = terms.get(p)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(p, None)
            else:
                terms[p] = s
        return Element(self.quiver, self.params, terms)

    def __neg__(self):
        return Element(self.quiver, self.params, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._compatible(other)
            out: Dict[Path, RatFunc] = {}
            q = self.quiver
            for p1, c1 in self.terms.items():
                for p2, c2 in other.terms.items():
                    p = compose(q, p1, p2)
                    if p is None:
                        continue
                    c = c1 * c2
                    s = out.get(p)
                    s = c if s is None else s + c
                    if s.is_zero():
                        out.pop(p, None)
                    else:
                        out[p] = s
            return Element(self.quiver, self.params, out)
        return self.scale(other)

    def __rmul__(self, other):
        # central scalars commute with everything
        return self.scale(other)

    def scale(self, c) -> "Element":
        c = RatFunc.coerce(self.params, c)
        if c.is_zero():
            return Element(self.quiver, self.params, {})
        return Element(self.quiver, self.params, {p: v * c for p, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise PathAlgebraError("negative powers are not defined")
        # repeated squaring; once a partial power is zero, so is the rest.
        # Squaring a loop doubles its path length, so a product whose degree
        # could pass MAX_POWER_DEGREE is refused before it is built.
        out = Element.identity(self.quiver, self.params)
        base = self
        while n:
            if n & 1:
                _check_power_degree(out.degree() + base.degree())
                out = out * base
                if out.is_zero():
                    return out
            n >>= 1
            if n:
                _check_power_degree(2 * base.degree())
                base = base * base
                if base.is_zero():
                    return base
        return out

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.quiver == other.quiver
            and self.params == other.params
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.quiver, self.params, frozenset(self.terms.items())))

    # -- printing -----------------------------------------------------------

    def format(self, order: Optional[MonomialOrder] = None) -> str:
        if not self.terms:
            return "0"
        if order is not None:
            paths = sorted(self.terms, key=order.key, reverse=True)
        else:
            paths = sorted(self.terms, key=lambda p: (-p.degree, -len(p.arrows), p.format(self.quiver)))
        parts = []
        for p in paths:
            c = self.terms[p]
            cs = str(c)
            word = p.format(self.quiver)
            if cs == "1":
                body = word
            elif cs == "-1":
                body = "-" + word
            elif not c.den.is_one() or len(c.num.num) > 1:
                body = "(%s)*%s" % (cs, word)
            else:
                body = "%s*%s" % (cs, word)
            parts.append("- " + body[1:] if body.startswith("-") else "+ " + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "Element(%s)" % self.format()


def is_multiple(x: Element, g: Element) -> bool:
    """Whether the nonzero x is r * g for one coefficient r: the same words,
    with one ratio between their coefficients."""
    xt, gt = x.terms, g.terms
    if xt.keys() != gt.keys():
        return False
    w = next(iter(xt))
    r = xt[w] / gt[w]
    return all(c == r * gt[p] for p, c in xt.items())


def algebra_map(x: Element, quiver: Quiver, params: ParamRing,
                arrows: Optional[Mapping[str, Optional[Element]]] = None,
                coeff: Optional[Callable[[RatFunc], RatFunc]] = None) -> Element:
    """The image of x in the path algebra of `quiver` over `params`.

    The map sends e_v to e_v, or to zero when v is not a vertex of
    `quiver`; an arrow named in `arrows` to its image there (None is zero),
    and any other arrow to the arrow of the same name; a coefficient c to
    coeff(c), or to c.  Each term's image is the product of those images.
    """
    arrows = arrows or {}
    images: Dict[int, Optional[Element]] = {}
    out = Element.zero(quiver, params)
    for path, c in x.terms.items():
        if path.source not in quiver.vertices:
            continue
        if coeff is not None:
            c = coeff(c)
        term = Element.idempotent(quiver, params, path.source).scale(c)
        for i in path.arrows:
            if i not in images:
                name = x.quiver.arrows[i].name
                images[i] = arrows[name] if name in arrows else Element.arrow(quiver, params, name)
            if images[i] is None:
                break
            term = term * images[i]
        else:
            out = out + term
    return out


def _check_param_names(quiver: Quiver, params: ParamRing) -> None:
    """Every parameter must be readable as itself in the element syntax."""
    for i, n in enumerate(params.names):
        if n in quiver._by_name or (n[:1] == "e" and n[1:] in quiver.vertices):
            raise EntryError("parameter %r is also the name of an arrow or an idempotent" % n, i)


class AlgebraPresentation:
    """A quiver, a central parameter ring, and a finite relation list.

    Every relation must be endpoint homogeneous: all its paths share one
    (source, target) pair.  `precedence` fixes the default monomial order
    (declaration order when omitted); `gb_degree` records an empirically
    sufficient default truncation degree for this presentation.
    """

    def __init__(
        self,
        quiver: Quiver,
        params: ParamRing,
        relations: Sequence[Element],
        name: str = "",
        precedence: Optional[Sequence[str]] = None,
        gb_degree: Optional[int] = None,
    ):
        self.quiver = quiver
        self.params = params
        self.relations = list(relations)
        self.name = name
        self.precedence = tuple(precedence) if precedence is not None else None
        self.gb_degree = gb_degree
        _check_param_names(quiver, params)
        for i, r in enumerate(self.relations):
            if r.quiver != quiver or r.params != params:
                raise PathAlgebraError("relation %d belongs to a different algebra" % i)
            if r.is_zero():
                continue
            if r.endpoints() is None:
                raise PathAlgebraError(
                    "relation %d is not endpoint homogeneous: %s" % (i, r.format())
                )

    def order(self) -> MonomialOrder:
        return MonomialOrder(self.quiver, self.precedence)

    def element(self, text: str) -> Element:
        return parse_element(text, self.quiver, self.params)

    def idempotent(self, vertex) -> Element:
        return Element.idempotent(self.quiver, self.params, str(vertex))

    def arrow(self, name: str) -> Element:
        return Element.arrow(self.quiver, self.params, name)

    def param(self, name: str) -> RatFunc:
        return RatFunc(self.params.var(name))

    def with_relations(self, relations: Sequence[Element], name: str = "") -> "AlgebraPresentation":
        return AlgebraPresentation(
            self.quiver, self.params, relations, name or self.name,
            precedence=self.precedence, gb_degree=self.gb_degree,
        )

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraPresentation)
            and self.quiver == other.quiver
            and self.params == other.params
            and self.relations == other.relations
        )

    def __repr__(self):
        return "AlgebraPresentation(%s: %d vertices, %d arrows, %d relations)" % (
            self.name or "?",
            len(self.quiver.vertices),
            len(self.quiver.arrows),
            len(self.relations),
        )


# ---------------------------------------------------------------------------
# element expression parsing
# ---------------------------------------------------------------------------

class _ElementParser(_PolyParser):
    """Element expressions: params, arrows, e<v>, rationals, + - * ^ ()."""

    def __init__(self, toks, quiver: Quiver, params: ParamRing):
        super().__init__(toks, params)
        self.quiver = quiver

    def _const(self, value) -> Element:
        return Element.identity(self.quiver, self.ring).scale(value)

    def atom(self):
        t = self.peek()
        if t.kind == "num":
            self.take()
            return self._const(t.value)
        if t.kind == "name":
            self.take()
            name = t.value
            if name in self.quiver._by_name:
                return Element.arrow(self.quiver, self.ring, name)
            if name.startswith("e") and name[1:] in self.quiver.vertices:
                return Element.idempotent(self.quiver, self.ring, name[1:])
            if name in self.ring._index:
                return self._const(RatFunc(self.ring.var(name)))
            raise ParseError("unknown name %r (not an arrow, idempotent, or parameter)" % name,
                             column=t.pos + 1)
        if t.kind == "(":
            self.take()
            p = self.expr()
            self.take(")")
            return p
        raise ParseError("unexpected %s" % t.describe(), column=t.pos + 1)

    def factor(self):
        base = self.atom()
        while self.peek().kind == "^":
            self.take()
            t = self.take("num")
            e = t.value
            if e.denominator != 1 or e < 0:
                raise ParseError("exponents must be nonnegative integers")
            try:
                base = base ** int(e)
            except PathAlgebraError as exc:
                raise ParseError(str(exc), column=t.pos + 1)
        return base

    def term(self):
        # element syntax allows division, but only by central coefficients
        # (needed so serialized rewrite rules parse back)
        out = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            rhs = self.factor()
            if op == "*":
                out = out * rhs
                continue
            coeffs = {c for c in rhs.terms.values()}
            if any(p.arrows for p in rhs.terms) or len(coeffs) != 1:
                raise ParseError("division is only defined by central coefficients")
            out = out.scale(next(iter(coeffs)).inv())
        return out


def parse_element(text: str, quiver: Quiver, params: ParamRing) -> Element:
    try:
        toks = tokenize_poly(text)
        return _ElementParser(toks, quiver, params).parse()
    except CoeffError as exc:
        raise ParseError(str(exc), column=None if exc.position is None else exc.position + 1)


# ---------------------------------------------------------------------------
# presentation files
# ---------------------------------------------------------------------------

def parse_presentation(text: str) -> AlgebraPresentation:
    """Parse the line-oriented presentation format (see module docstring)."""
    name = ""
    params: List[Tuple[str, int]] = []  # (name, line number)
    ring = ParamRing(())
    vertices: List[str] = []
    arrow_specs: List[Tuple[str, str, str, int]] = []
    arrow_lines: List[int] = []
    relation_texts: List[Tuple[str, int, int]] = []
    precedence: Optional[List[str]] = None
    precedence_line = 0
    gb_degree: Optional[int] = None
    given = set()  # the single-valued keys seen so far

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        line = body.strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", line=lineno)
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key in ("name", "precedence", "gb_degree"):
            _check_once(key in given, "%r" % (key + ":"), lineno)
            given.add(key)
        if key == "name":
            name = value
        elif key == "params":
            params += [(p, lineno) for p in _split_list(value)]
            try:
                ring = ParamRing([p for p, _ in params])
            except CoeffError as exc:
                raise ParseError(str(exc), line=lineno)
        elif key == "vertices":
            for v in _split_list(value):
                if v in vertices:
                    raise ParseError("vertex %r is declared twice" % v, line=lineno)
                vertices.append(v)
        elif key == "arrows":
            for tok in _split_list(value):
                arrow_specs.append(_parse_arrow_spec(tok, lineno))
                arrow_lines.append(lineno)
        elif key == "relations":
            at = body.index(":") + 1  # offset of each relation text in the line
            for part in body[at:].split(";"):
                if part.strip():
                    offset = at + len(part) - len(part.lstrip())
                    relation_texts.append((part.strip(), lineno, offset))
                at += len(part) + 1
        elif key == "precedence":
            precedence = _split_list(value)
            precedence_line = lineno
        elif key == "gb_degree":
            gb_degree = _parse_int(value, "gb_degree", lineno)
        else:
            raise ParseError("unknown key %r" % key, line=lineno)

    if not vertices:
        raise ParseError("no vertices declared")
    try:
        quiver = Quiver(vertices, arrow_specs, name=name)
    except EntryError as exc:
        raise ParseError(str(exc), line=arrow_lines[exc.index])
    try:
        _check_param_names(quiver, ring)
    except EntryError as exc:
        raise ParseError(str(exc), line=params[exc.index][1])
    if precedence is not None:
        try:
            MonomialOrder(quiver, precedence)
        except PathAlgebraError as exc:
            raise ParseError(str(exc), line=precedence_line)
    relations = []
    for text_r, lineno, at in relation_texts:
        try:
            rel = parse_element(text_r, quiver, ring)
        except ParseError as exc:
            column = None if exc.column is None else at + exc.column
            raise ParseError("in relation %r: %s" % (text_r, exc.message),
                             line=lineno, column=column)
        if not rel.is_zero() and rel.endpoints() is None:
            raise ParseError("relation %r is not endpoint homogeneous" % text_r, line=lineno)
        relations.append(rel)
    return AlgebraPresentation(
        quiver, ring, relations, name=name, precedence=precedence, gb_degree=gb_degree
    )


def _check_once(repeated: bool, what: str, lineno: int) -> None:
    """A single-valued entry may be given only once."""
    if repeated:
        raise ParseError("%s is given twice" % what, line=lineno)


def _parse_int(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError("%s must be an integer, got %r" % (what, text.strip()), line=lineno) from None


def _split_list(value: str) -> List[str]:
    parts = []
    depth = 0
    cur = ""
    for ch in value:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur.strip())
    return [p for p in parts if p]


def _parse_arrow_spec(tok: str, lineno: int) -> Tuple[str, str, str, int]:
    if ":" not in tok:
        raise ParseError("bad arrow %r (expected 'name: src -> tgt')" % tok, line=lineno)
    nm, rest = tok.split(":", 1)
    nm = nm.strip()
    rest = rest.strip()
    deg = 1
    if "(" in rest:
        rest, dd = rest.split("(", 1)
        dd = dd.strip()
        if not (dd.startswith("deg") and dd.endswith(")")):
            raise ParseError("bad arrow degree in %r" % tok, line=lineno)
        deg = _parse_int(dd[3:-1], "degree of arrow %r" % nm, lineno)
        rest = rest.strip()
    if "->" not in rest:
        raise ParseError("bad arrow %r (missing '->')" % tok, line=lineno)
    src, tgt = rest.split("->", 1)
    return (nm, src.strip(), tgt.strip(), deg)


def format_presentation(pres: AlgebraPresentation) -> str:
    """Render a presentation in the file format (round-trips with parse)."""
    lines = []
    if pres.name:
        lines.append("name: %s" % pres.name)
    lines.append(("params: %s" % ", ".join(pres.params.names)).rstrip())
    lines.append("vertices: %s" % ", ".join(pres.quiver.vertices))
    arrows = []
    for a in pres.quiver.arrows:
        spec = "%s: %s -> %s" % (a.name, a.source, a.target)
        if a.degree != 1:
            spec += " (deg %d)" % a.degree
        arrows.append(spec)
    lines.append("arrows: %s" % ", ".join(arrows))
    order = pres.order()
    for r in pres.relations:
        lines.append("relations: %s" % r.format(order))
    if pres.precedence is not None:
        lines.append("precedence: %s" % ", ".join(pres.precedence))
    if pres.gb_degree is not None:
        lines.append("gb_degree: %d" % pres.gb_degree)
    return "\n".join(lines) + "\n"
