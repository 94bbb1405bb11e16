"""Two-sided noncommutative Groebner bases for path-algebra ideals.

Completion is Bergman-style overlap (diamond lemma) resolution on leading
words, restricted to vertex-compatible overlaps and truncated by word
degree.  Rules are interreduced (no leading word contains another rule's
leading word; tails fully reduced) and pair selection follows the normal
strategy (lowest overlap degree first, ties broken by the monomial order),
so repeated runs produce identical bases element by element.

Internally the rewriting is fraction free: a rule is stored as
lc * lead ≡ rest with polynomial coefficients, applying a rule with a
nonconstant leading coefficient pseudo-scales the working element, and the
accumulated multiplier is divided out only when a caller asks for an
actual normal form.  Rules with constant leading coefficients (the vast
majority) are made genuinely monic at creation, so most rewrite steps are
exact; the monic-over-the-fraction-field view of the basis is what
`serialize` presents.

The rewriting kernel's coefficient domain follows the input's ring.  With
parameters, the work coefficients are `MultiPoly` values.  Without any (the
NCCRs and their contraction algebras), every leading coefficient is
constant and every rule monic, so the kernel works on Python rationals: an
`int`, or a `Fraction` where a rule's tail has a denominator.  Each rule
compiles its tail into that domain once; the kernel converts its input
once on entry and its output back to `MultiPoly` on exit, so callers see
`MultiPoly` coefficients either way.

Every reduction rewrites the largest reducible word first.  The pending
words wait in a max-heap as packed integers: a word is the `digits` of its
order key (`MonomialOrder.key`), the heap holds int tuples, and a rewrite
computes the new words' keys from the old word's by integer arithmetic on
the digits and each rule's compiled tail.  So only the input words of a
reduction have their key computed, and only its irreducible output words
become `Path`s.

`complete_groebner` climbs a ladder of truncation degrees on one
completion, raising its degree and continuing, so no rung repeats the
reductions of the rung below.  Its bounds are module constants
(`MAX_TRUNCATION`, and `MAX_NORMAL_WORDS` for `enumerate_normal_words`),
and every completion orders words by the presentation's precedence
(`AlgebraPresentation.order`).  Rules are immutable: the completion
replaces a rule whose tail it re-reduces, so the bases it hands out share
its rules and never change.

An overlap is never reduced when its word holds an active rule's lead
strictly inside, touching neither its first arrow nor its last: the
noncommutative chain criterion (Mora 1994; La Scala and Levandovskyy 2009).
Interreduction makes such a lead overlap both leads of the pair, so the two
overlaps it forms with them have proper subwords as words, were picked
earlier, and were resolved already; see `_Completion`.

Normal forms are unique for inputs whose degree stays within the
truncation bound; `reduce_element` is the same rewriting loop without the
degree guard (sound for ideal membership at any degree, canonical only
below it).
"""

from __future__ import annotations

import os
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .coeff import CoeffError, MultiPoly, ParamRing, RatFunc, divexact, poly_gcd
from .pathalg import (
    AlgebraPresentation,
    Element,
    MonomialOrder,
    ParseError,
    Path,
    PathAlgebraError,
    Quiver,
)

DEFAULT_MAX_STEPS = 10 ** 6
# the highest truncation degree `complete_groebner` tries
MAX_TRUNCATION = 64
# the most normal words `enumerate_normal_words` lists
MAX_NORMAL_WORDS = 10 ** 6
INFINITE = "infinite-or-budget"

PolyTerms = Dict[Path, MultiPoly]


class BudgetExceededError(RuntimeError):
    """Raised when a completion or reduction exceeds its step budget."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class InfiniteDimensionError(BudgetExceededError):
    """Normal words grow past the pumping bound: the quotient is infinite
    dimensional."""


class TruncationError(PathAlgebraError):
    """Input degree exceeds the basis truncation degree."""


class Budget:
    __slots__ = ("max_steps", "steps")

    def __init__(self, max_steps: Optional[int] = None):
        if max_steps is None:
            raw = os.environ.get("FLOPCALC_MAX_STEPS")
            try:
                max_steps = DEFAULT_MAX_STEPS if raw is None else int(raw)
            except ValueError:
                raise ParseError("FLOPCALC_MAX_STEPS must be an integer, got %r" % raw) from None
        self.max_steps = max_steps
        self.steps = 0

    def tick(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise BudgetExceededError(
                "reduction step budget exceeded (%d steps; raise FLOPCALC_MAX_STEPS "
                "or pass a larger budget)" % self.max_steps
            )


class Rule:
    """Rewrite rule lc * lead ≡ rest with polynomial coefficients.

    `lc` is 1 whenever the candidate's leading coefficient was constant.
    An empty lead (idempotent path e_v) is the degenerate rule e_v -> 0,
    killing every path through v.

    `compiled` is `rest` as the rewriting kernel reads it: one
    `(arrows, degree, length, digits, unit, coeff)` entry per word, with the
    order key's fields and `unit` 1 or -1 for a coefficient of 1 or -1, 0
    for any other.  `coeff` is in the kernel's coefficient domain: a Python
    rational (`_scalar`) when the ring has no parameters, the `MultiPoly`
    otherwise.  A rule never changes once built: the completion replaces a
    rule whose tail it re-reduces by a new one, so a basis can share its
    rules with the completion that handed it out.
    """

    __slots__ = ("lead", "lc", "rest", "compiled")

    def __init__(self, lead: Path, lc: MultiPoly, rest: PolyTerms, order: MonomialOrder):
        self.lead = lead
        self.lc = lc
        self.rest = rest
        key = order.key
        self.compiled = [
            (p.arrows,) + key(p) + (1 if c.is_one() else -1 if (-c).is_one() else 0,
                                    c if c.ring.names else _scalar(c))
            for p, c in rest.items()]

    def poly_element(self) -> PolyTerms:
        terms = {self.lead: self.lc}
        for p, c in self.rest.items():
            terms[p] = -c
        return terms

    def remainder_element(self, quiver: Quiver, params: ParamRing) -> Element:
        """What the lead word rewrites to: rest / lc."""
        lc = RatFunc(self.lc)
        return Element(quiver, params,
                       {p: RatFunc(c) / lc for p, c in self.rest.items()})

    def __repr__(self):
        return "Rule(%r -> %d terms)" % (self.lead, len(self.rest))


def _scalar(c: MultiPoly):
    """A constant as a Python rational: an int, or a Fraction when it has
    a denominator."""
    if not c.is_constant():
        raise CoeffError("a parameter-free reduction met the non-constant coefficient %s" % c)
    n, d = c.lead_ratio()
    return n if d == 1 else Fraction(n, d)


def _visits(quiver: Quiver, source: str, arrows: Tuple[int, ...], vertex: str) -> Optional[int]:
    """First position at which the vertex sequence of the word `arrows`
    from `source` hits `vertex`."""
    if source == vertex:
        return 0
    qa = quiver.arrows
    for i, ai in enumerate(arrows):
        if qa[ai].target == vertex:
            return i + 1
    return None


def _contains(quiver: Quiver, path: Path, lead: Path) -> bool:
    """Whether `lead` is a subword of `path`; an empty lead e_v is one of
    every path that visits v."""
    la = lead.arrows
    if not la:
        return _visits(quiver, path.source, path.arrows, lead.source) is not None
    wa, m = path.arrows, len(la)
    return any(wa[i:i + m] == la for i in range(len(wa) - m + 1))


class _RuleIndex:
    """Rules keyed by lead in insertion order, and indexed by leading first
    arrow for leftmost subword search."""

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.rules: Dict[Path, Rule] = {}
        self.by_first: Dict[int, List[Rule]] = {}
        self.empty_leads: Dict[str, Rule] = {}

    def add(self, rule: Rule):
        self.rules[rule.lead] = rule
        if rule.lead.arrows:
            self.by_first.setdefault(rule.lead.arrows[0], []).append(rule)
        else:
            self.empty_leads[rule.lead.source] = rule

    def remove(self, rule: Rule):
        """Retire a rule; only a nonempty lead is ever retired."""
        del self.rules[rule.lead]
        self.by_first[rule.lead.arrows[0]].remove(rule)

    def replace(self, old: Rule, new: Rule):
        """Put `new`, which has `old`'s lead, in `old`'s place everywhere; the
        lead is nonempty, as an empty lead's tail is empty and never re-reduced."""
        self.rules[new.lead] = new
        same_first = self.by_first[new.lead.arrows[0]]
        same_first[same_first.index(old)] = new

    def find(self, source: str, word: Tuple[int, ...]):
        """Leftmost match in the word `word` from `source`: (position,
        rule) or None.

        Interreduction guarantees at most one nonempty lead matches at a
        given position; empty leads are checked on the vertex sequence.
        """
        if self.empty_leads:
            for v, rule in self.empty_leads.items():
                pos = _visits(self.quiver, source, word, v)
                if pos is not None:
                    return pos, rule
        by_first = self.by_first
        n = len(word)
        for i in range(n):
            cands = by_first.get(word[i])
            if not cands:
                continue
            for rule in cands:
                la = rule.lead.arrows
                m = len(la)
                if i + m <= n and word[i:i + m] == la:
                    return i, rule
        return None

    def is_normal(self, path: Path) -> bool:
        return self.find(path.source, path.arrows) is None


def _holds_inner_lead(index: _RuleIndex, word: Tuple[int, ...]) -> bool:
    """Whether a nonempty lead occurs in `word` touching neither end arrow.

    This is the chain criterion for the overlap whose word is `word`: see
    `_Completion`.
    """
    by_first = index.by_first
    end = len(word) - 1
    for i in range(1, end):
        for rule in by_first.get(word[i], ()):
            la = rule.lead.arrows
            if i + len(la) <= end and word[i:i + len(la)] == la:
                return True
    return False


class GroebnerBasis:
    """An interreduced truncated rewriting system with its monomial order."""

    def __init__(
        self,
        algebra: AlgebraPresentation,
        order: MonomialOrder,
        rules: Sequence[Rule],
        truncation_degree: int,
        complete: bool,
    ):
        self.algebra = algebra
        self.order = order
        self.rules = list(rules)
        self.truncation_degree = truncation_degree
        self.complete = complete
        self._index = _RuleIndex(algebra.quiver)
        for r in self.rules:
            self._index.add(r)

    def __repr__(self):
        return "GroebnerBasis(%d rules, degree<=%d, complete=%s)" % (
            len(self.rules),
            self.truncation_degree,
            self.complete,
        )

    def serialize(self) -> str:
        """Ordered rule list `lead -> remainder` with a header."""
        lines = [
            "order: deglex; %s" % ", ".join(self.order.precedence),
            "truncation_degree: %d" % self.truncation_degree,
            "complete: %s" % ("true" if self.complete else "false"),
        ]
        q, pr = self.algebra.quiver, self.algebra.params
        for r in self.rules:
            lines.append("%s -> %s" % (
                r.lead.format(q), r.remainder_element(q, pr).format(self.order)))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fraction-free reduction
# ---------------------------------------------------------------------------

def _reduce_poly_terms(
    terms: PolyTerms,
    index: _RuleIndex,
    quiver: Quiver,
    order: MonomialOrder,
    budget: Budget,
) -> Tuple[PolyTerms, MultiPoly]:
    """Fully reduce, fraction free; returns (reduced, multiplier).

    The result equals multiplier * (exact reduction of the input); the
    multiplier is the product of the nonconstant leading coefficients of
    the rules applied.  Deterministic: largest reducible word first.

    A pending word is an int: the `digits` of its order key when it is
    nonempty, the id -1 - i for the idempotent at the i-th vertex.  The
    pending words sit in a max-heap of int entries
    (-degree, -length, -digits, seq, id).  Only the input words go through
    `order.key`: a rewrite splices a rule's compiled rest into the word,
    and the new words' degrees, lengths and digits follow from the old
    ones by integer arithmetic.  Only the irreducible words, the output,
    become `Path`s.  A rest coefficient of 1 or -1 adds or subtracts the
    word's coefficient instead of multiplying it.

    Only idempotents e_v at different vertices share a key; a sequence
    number breaks those ties by the order in which the words entered
    `work`.  A word that cancels keeps its heap entry, which is skipped
    when popped because `live` no longer holds its sequence number.

    The work coefficients are in the domain of the input's ring: when it
    has no parameters they are Python rationals (`_scalar`, as the rules'
    compiled tails are), converted once here and back to `MultiPoly` on
    output; otherwise they are the `MultiPoly` values themselves.  A
    parameter-free ring makes every constant leading coefficient monic
    (`_make_rule`), so there the fraction-free branch is never taken.
    """
    if not terms:
        return {}, ParamRing([]).one()
    ring = next(iter(terms.values())).ring
    scalar = not ring.names
    base = order.base
    qa, vertices = quiver.arrows, quiver.vertices
    vertex_id = {v: -1 - i for i, v in enumerate(vertices)}
    work: Dict[int, object] = {}
    words: Dict[int, Tuple[int, ...]] = {}
    live: Dict[int, int] = {}
    heap: List[Tuple[int, int, int, int, int]] = []
    seq = count()
    for p, c in terms.items():
        if not c.is_zero():
            degree, length, digits = order.key(p)
            w = digits if length else vertex_id[p.source]
            work[w] = _scalar(c) if scalar else c
            words[w] = p.arrows
            n = live[w] = next(seq)
            heappush(heap, (-degree, -length, -digits, n, w))
    out = {}
    mult: Optional[MultiPoly] = None
    find = index.find
    while heap:
        neg_degree, neg_length, neg_digits, n, w = heappop(heap)
        if live.get(w) != n:
            continue
        del live[w]
        c = work.pop(w)
        word = words[w]
        source = qa[word[0]].source if word else vertices[-1 - w]
        m = find(source, word)
        if m is None:
            # words pop in strictly decreasing order, so each pops once
            out[Path(quiver, source, word, _check=False, _degree=-neg_degree)] = c
            continue
        budget.tick()
        pos, rule = m
        if not rule.lc.is_one():
            lc = rule.lc
            for p in list(work):
                work[p] = work[p] * lc
            for p in list(out):
                out[p] = out[p] * lc
            mult = lc if mult is None else mult * lc
        lead = rule.lead
        end = pos + len(lead.arrows)
        pre, post = word[:pos], word[end:]
        digits = -neg_digits
        post_scale = base ** (len(word) - end)
        pre_digits = digits // base ** (len(word) - pos)
        post_digits = digits % post_scale
        outer_degree = -neg_degree - lead.degree
        outer_length = len(word) - end + pos
        for r_arrows, r_degree, r_length, r_digits, unit, rc in rule.compiled:
            nd = (pre_digits * base ** r_length + r_digits) * post_scale + post_digits
            # a spliced word is empty only when the lead was the whole word
            nw = nd if nd else vertex_id[source]
            prev = work.get(nw)
            if prev is None:
                work[nw] = c if unit == 1 else -c if unit else c * rc
                words[nw] = pre + r_arrows + post
                k = live[nw] = next(seq)
                heappush(heap, (-outer_degree - r_degree, -outer_length - r_length, -nd, k, nw))
                continue
            s = prev + c if unit == 1 else prev - c if unit else prev + c * rc
            if s:
                work[nw] = s
            else:
                del work[nw]
                del live[nw]
    if scalar:
        const = ring.const
        out = {p: const(c) for p, c in out.items()}
    return out, ring.one() if mult is None else mult


def _poly_content(terms: PolyTerms) -> Optional[MultiPoly]:
    acc = None
    for c in terms.values():
        acc = c if acc is None else poly_gcd(acc, c)
        if acc.is_one():
            return acc
    return acc


def _primitive(terms: PolyTerms) -> PolyTerms:
    """Divide by the polynomial content and normalize the sign so the
    leading word's leading rational coefficient is positive.

    The words of `terms` come in decreasing order, as `_reduce_poly_terms`
    returns them, so the first is the leading word.
    """
    if not terms:
        return terms
    cont = _poly_content(terms)
    if cont is not None and not cont.is_one():
        terms = {p: divexact(c, cont) for p, c in terms.items()}
    n, d = next(iter(terms.values())).lead_ratio()
    if n != d:
        # keep coefficients polynomial: rational rescale is always exact
        terms = {p: c.scale(d, n) for p, c in terms.items()}
    return terms


def _clear_denominators(x: Element) -> Tuple[PolyTerms, MultiPoly]:
    """(polynomial terms, D) with terms = D * x."""
    ring = x.params
    D = ring.one()
    for c in x.terms.values():
        if not c.den.is_one():
            g = poly_gcd(D, c.den)
            extra = divexact(c.den, g) if not g.is_one() else c.den
            D = D * extra
    if D.is_one():
        return {p: c.num for p, c in x.terms.items()}, D
    return {p: c.num * divexact(D, c.den) for p, c in x.terms.items()}, D


def reduce_poly(x: Element, gb: GroebnerBasis, budget: Optional[Budget] = None
                ) -> Tuple[PolyTerms, MultiPoly]:
    """Fraction-free reduction: (terms, scale) with terms = scale * NF(x)."""
    budget = budget or Budget()
    cleared, D = _clear_denominators(x)
    if not cleared:
        # the kernel knows no ring without terms: keep the scale in x's ring
        return {}, D
    reduced, mult = _reduce_poly_terms(cleared, gb._index, x.quiver, gb.order, budget)
    return reduced, mult if D.is_one() else D * mult


def reduce_element(x: Element, gb: GroebnerBasis, budget: Optional[Budget] = None) -> Element:
    """Rewrite x to an irreducible form (canonical below truncation only)."""
    reduced, scale = reduce_poly(x, gb, budget)
    rscale = RatFunc(scale)
    terms = {p: RatFunc(c) / rscale for p, c in reduced.items()}
    return Element(x.quiver, x.params, terms)


def normal_form(x: Element, gb: GroebnerBasis, budget: Optional[Budget] = None) -> Element:
    """Unique irreducible representative modulo the ideal, up to truncation."""
    if x.degree() > gb.truncation_degree:
        raise TruncationError(
            "element degree %d exceeds basis truncation degree %d"
            % (x.degree(), gb.truncation_degree)
        )
    return reduce_element(x, gb, budget)


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

def _make_rule(terms: PolyTerms, order: MonomialOrder) -> Rule:
    """The rule of `terms`, whose words come in decreasing order."""
    lead = next(iter(terms))
    lc = terms[lead]
    rest = {}
    if lc.is_constant():
        n, d = lc.lead_ratio()
        for p, c in terms.items():
            if p == lead:
                continue
            rest[p] = c.scale(-d, n)
        lc = lc.ring.one()
    else:
        for p, c in terms.items():
            if p == lead:
                continue
            rest[p] = -c
    return Rule(lead, lc, rest, order)


class _Completion:
    """One overlap completion whose truncation degree can only rise.

    Holds the whole state of a run: the rule index, the pending elements,
    the overlap signatures already seen, the queue of overlaps at or below
    the current truncation degree and the overlaps skipped above it.  An
    overlap is the entry `(degree, key, (lead1, lead2, k))` of its word
    w = lead1 + lead2[k:]; it is live while both leads lead rules of the
    index, and its S-element reads those rules when it is picked.  `run(d)`
    raises the truncation to d, queues the skipped overlaps that now fit
    and completes; a later `run(d')` continues from there instead of
    starting again.  The monomial order is the presentation's
    (`AlgebraPresentation.order`).

    Rules are never edited: when an insertion makes a tail reducible, the
    rule is rebuilt from the reduced tail and put in the old one's place
    in the index, so every iteration order stays as it was and a handed-out
    basis shares the index's rules.

    The truncation ladder keeps three things of a from-scratch run at its
    degree: the overlap pick order over live entries, the
    tail interreduction after every insertion, and the completeness rule:
    a basis is complete only when no overlap of any rule, active or
    retired, remains skipped.  A complete basis is the unique reduced
    basis of its ideal, so it equals the from-scratch one rule for rule.

    An overlap of rules r1, r2 popped from the queue, with word
    w = lead1 + lead2[k:], is dropped unreduced when an active rule's
    nonempty lead L occurs in w at a position i >= 1 with
    i + len(L) <= len(w) - 1 (`_holds_inner_lead`).  No lead holds another,
    so L is inside neither lead1 nor lead2 and overlaps both: (r1, L) and
    (L, r2) are overlaps whose words are a proper prefix and a proper
    suffix of w.  Their pick keys are smaller than w's, so they were
    popped before it and each was reduced or dropped by the same argument
    on a shorter word; the containment is strict, so the drops rest on no
    circle.  The S-element of (r1, r2) is a combination of theirs with
    words below w, so a complete basis, the unique reduced one, is the
    same with the criterion as without it.  The criterion acts on the
    queue only: the overlaps skipped above the truncation and the
    completeness rule are untouched.  `tests/test_chain_criterion.py`
    compares bases with and without it byte for byte, truncated ones too.
    """

    def __init__(self, algebra: AlgebraPresentation, budget: Budget):
        self.algebra = algebra
        self.order = algebra.order()
        self.budget = budget
        self.quiver = algebra.quiver
        self.max_rel_degree = max(
            (r.degree() for r in algebra.relations if not r.is_zero()), default=0)
        self.index = _RuleIndex(algebra.quiver)
        self.pending: List[PolyTerms] = [
            _clear_denominators(r)[0] for r in algebra.relations if not r.is_zero()
        ]
        self.seen_overlaps: Set[Tuple] = set()
        self.overlap_queue: List[Tuple] = []
        self.skipped: List[Tuple] = []
        self.max_degree = 0

    def basis(self, complete: bool) -> GroebnerBasis:
        """The current rules as a basis at the current truncation degree.

        Rules never change, and the completion replaces rather than edits
        them, so the basis shares them and stays as it is when the
        completion continues.
        """
        rules = sorted(self.index.rules.values(), key=lambda r: self.order.key(r.lead))
        return GroebnerBasis(self.algebra, self.order, rules, self.max_degree, complete)

    def run(self, max_degree: int) -> GroebnerBasis:
        """Complete up to `max_degree`, continuing from the previous run."""
        if max_degree < self.max_rel_degree:
            raise PathAlgebraError(
                "max_degree %d is below the maximum relation degree %d"
                % (max_degree, self.max_rel_degree))
        self.max_degree = max_degree
        still_above = []
        for entry in self.skipped:
            (self.overlap_queue if entry[0] <= max_degree else still_above).append(entry)
        self.skipped = still_above
        try:
            self._complete()
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                "%s; stopped at truncation degree %d with %d rules"
                % (exc, max_degree, len(self.index.rules)),
                partial=self.basis(False)) from None
        return self.basis(not self.skipped)

    def _queue_overlaps(self, rule: Rule):
        lead = rule.lead
        if not lead.arrows:
            return
        quiver, key = self.quiver, self.order.key
        seen = self.seen_overlaps
        for other in self.index.rules:
            if not other.arrows:
                continue
            for first, second in ((lead, other), (other, lead)):
                a1, a2 = first.arrows, second.arrows
                for k in range(1, min(len(a1), len(a2))):
                    if a1[len(a1) - k:] != a2[:k]:
                        continue
                    sig = (first, second, k)
                    if sig in seen:
                        continue
                    seen.add(sig)
                    word = a1 + a2[k:]
                    src = quiver.arrows[word[0]].source
                    path = Path(quiver, src, word, _check=False)
                    entry = (path.degree, key(path), sig)
                    if path.degree > self.max_degree:
                        self.skipped.append(entry)
                    else:
                        self.overlap_queue.append(entry)
                if first is second:
                    break

    def _insert(self, terms: PolyTerms):
        index, quiver, order, budget = self.index, self.quiver, self.order, self.budget
        rule = _make_rule(terms, order)
        lead = rule.lead
        # the new lead is irreducible, so a lead holding it holds it properly
        retired = [r for r in index.rules.values()
                   if r.lead.arrows and _contains(quiver, r.lead, lead)]
        for r in retired:
            index.remove(r)
            self.pending.append(r.poly_element())
        index.add(rule)
        # keep every tail fully reduced against the updated system: only a
        # tail holding the new lead became reducible
        for r in list(index.rules.values()):
            if not any(_contains(quiver, p, lead) for p in r.rest):
                continue
            reduced, mult = _reduce_poly_terms(r.rest, index, quiver, order, budget)
            if mult.is_one():
                fresh = Rule(r.lead, r.lc, reduced, order)
            else:
                # lc * lead = rest got scaled: rescale lc accordingly, then
                # restore primitivity of the full rule; the lead goes first,
                # so the words stay in decreasing order
                whole = {r.lead: r.lc * mult}
                for p, c in reduced.items():
                    whole[p] = -c
                fresh = _make_rule(_primitive(whole), order)
            index.replace(r, fresh)
        self._queue_overlaps(rule)

    def _complete(self):
        index, quiver, order, budget = self.index, self.quiver, self.order, self.budget
        key = order.key
        pending, overlap_queue, rules = self.pending, self.overlap_queue, index.rules
        while True:
            if pending:
                normalized = []
                for t in pending:
                    red, _ = _reduce_poly_terms(t, index, quiver, order, budget)
                    if red:
                        normalized.append(_primitive(red))
                pending.clear()
                if not normalized:
                    continue
                normalized.sort(key=lambda t: key(next(iter(t))))
                pending.extend(normalized[1:])
                self._insert(normalized[0])
                continue
            # a pair is live while both leads lead rules: a retired lead
            # holds an active one, so it never leads a rule again
            best_i = -1
            for i, entry in enumerate(overlap_queue):
                lead1, lead2, _ = entry[2]
                if lead1 not in rules or lead2 not in rules:
                    continue
                if best_i < 0 or entry < overlap_queue[best_i]:
                    best_i = i
            if best_i < 0:
                return
            lead1, lead2, k = overlap_queue.pop(best_i)[2]
            r1, r2 = rules[lead1], rules[lead2]
            l1, l2 = lead1.arrows, lead2.arrows
            tail = l2[k:]
            if _holds_inner_lead(index, l1 + tail):
                continue
            src = quiver.arrows[l1[0]].source
            head = l1[: len(l1) - k]
            # lc1*word ≡ rest1*tail and lc2*word ≡ head*rest2:
            # S = lc2*(rest1∘tail) - lc1*(head∘rest2)
            terms: PolyTerms = {}
            for rw, rc in r1.rest.items():
                p = Path(quiver, src, rw.arrows + tail, _check=False)
                c = rc if r2.lc.is_one() else rc * r2.lc
                prev = terms.get(p)
                s = c if prev is None else prev + c
                if s.is_zero():
                    terms.pop(p, None)
                else:
                    terms[p] = s
            for rw, rc in r2.rest.items():
                p = Path(quiver, src, head + rw.arrows, _check=False)
                c = rc if r1.lc.is_one() else rc * r1.lc
                prev = terms.get(p)
                s = -c if prev is None else prev - c
                if s.is_zero():
                    terms.pop(p, None)
                else:
                    terms[p] = s
            reduced, _ = _reduce_poly_terms(terms, index, quiver, order, budget)
            if reduced:
                pending.append(reduced)


def truncated_groebner(
    algebra: AlgebraPresentation,
    *,
    max_degree: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> GroebnerBasis:
    """Overlap completion truncated at `max_degree` (word degree), by
    default the presentation's `gb_degree`, under the presentation's order.

    Deterministic for fixed inputs.  Raises BudgetExceededError (carrying
    the partial basis in `.partial`) when the step cap is hit.
    """
    if max_degree is None:
        max_degree = algebra.gb_degree
    if max_degree is None:
        raise PathAlgebraError("max_degree required (no default recorded on presentation)")
    return _Completion(algebra, budget or Budget()).run(max_degree)


# ---------------------------------------------------------------------------
# normal word enumeration and dimension
# ---------------------------------------------------------------------------

def enumerate_normal_words(
    gb: GroebnerBasis,
    source: Optional[str] = None,
    target: Optional[str] = None,
    max_degree: Optional[int] = None,
) -> List[Path]:
    """All irreducible words with the given endpoints, graded by degree.

    With max_degree=None the enumeration runs until a degree level is empty
    (valid because normal words are closed under taking prefixes); if it
    instead passes the pumping bound the quotient is infinite dimensional
    and InfiniteDimensionError is raised.  More than MAX_NORMAL_WORDS words
    raise BudgetExceededError.
    """
    quiver = gb.algebra.quiver
    if source is not None:
        source = str(source)
    if target is not None:
        target = str(target)
    index = gb._index
    out: List[Path] = []
    frontier = [
        Path(quiver, v, ())
        for v in quiver.vertices
        if source in (None, v) and index.is_normal(Path(quiver, v, ()))
    ]
    bound = max_degree if max_degree is not None else _pumping_bound(gb)
    while frontier:
        for p in frontier:
            if target in (None, p.target):
                out.append(p)
        if len(out) > MAX_NORMAL_WORDS:
            raise BudgetExceededError(
                "normal word enumeration exceeded %d words" % MAX_NORMAL_WORDS)
        new: List[Path] = []
        for p in frontier:
            for a in quiver.arrows:
                if a.source != p.target:
                    continue
                np = Path(quiver, p.source, p.arrows + (a.index,), _check=False)
                if np.degree > bound:
                    if max_degree is None:
                        raise InfiniteDimensionError(
                            "normal words keep growing past the pumping bound; "
                            "the quotient is infinite dimensional"
                        )
                    continue
                if index.is_normal(np):
                    new.append(np)
        frontier = new
    okey = gb.order.key
    out.sort(key=lambda p: (p.degree, okey(p)))
    return out


def _pumping_bound(gb: GroebnerBasis) -> int:
    """Length bound past which normal-word growth proves infinite dimension.

    Extension of a normal word depends only on its trailing m-1 arrows
    (m = longest lead length): a normal word longer than the number of such
    states repeats a state and can be pumped, giving infinitely many.
    """
    quiver = gb.algebra.quiver
    m = max((len(r.lead.arrows) for r in gb.rules), default=1)
    window = max(m - 1, 1)
    counts = {v: 1 for v in quiver.vertices}
    states = len(quiver.vertices)
    for _ in range(window):
        nxt = {v: 0 for v in quiver.vertices}
        for a in quiver.arrows:
            nxt[a.target] += counts[a.source]
        counts = nxt
        states += sum(counts.values())
        if states > 10 ** 6:
            break
    maxdeg = max((a.degree for a in quiver.arrows), default=1)
    return (states + window + 2) * maxdeg


def complete_groebner(
    algebra: AlgebraPresentation,
    *,
    budget: Optional[Budget] = None,
) -> GroebnerBasis:
    """The first complete truncated basis (no overlap skipped) on a rising
    ladder of truncation degrees, under the presentation's order.

    Starts at twice the largest relation degree, and at least 4, and
    raises the degree d by max(2, d // 2) each time.  All rungs share one
    completion: each raises its truncation degree and resolves only the
    overlaps the previous rungs skipped or created, so no reduction is
    repeated.  The complete basis equals a from-scratch
    `truncated_groebner` at its degree, rule for rule.

    Raises BudgetExceededError when no degree up to MAX_TRUNCATION gives
    a complete basis; `.partial` is then the last incomplete basis.  When
    the step budget runs out on a rung, `.partial` is the basis at that
    rung's degree.
    """
    completion = _Completion(algebra, budget or Budget())
    d = max(2 * completion.max_rel_degree, 4)
    gb = None
    while d <= MAX_TRUNCATION:
        gb = completion.run(d)
        if gb.complete:
            return gb
        d = d + max(2, d // 2)
    if gb is None:
        raise BudgetExceededError(
            "no complete basis: the start degree %d exceeds the truncation cap %d"
            % (d, MAX_TRUNCATION))
    raise BudgetExceededError(
        "no complete basis up to truncation degree %d: the basis at degree %d, "
        "the highest tried, has %d rules and skips overlaps above it"
        % (MAX_TRUNCATION, gb.truncation_degree, len(gb.rules)), partial=gb)


def dimension(algebra: AlgebraPresentation, *, budget: Optional[Budget] = None):
    """Total normal-word count when finite; INFINITE for provable growth.

    A complete basis (`complete_groebner`) either hits an empty degree
    level (finite, exact count) or passes the pumping bound (infinite
    dimensional).  Budget exhaustion raises BudgetExceededError.
    """
    gb = complete_groebner(algebra, budget=budget)
    try:
        return len(enumerate_normal_words(gb))
    except InfiniteDimensionError:
        return INFINITE
