"""Contraction algebras, their dimensions, and Gopakumar-Vafa invariants.

The contraction algebra of a presentation with a chosen vertex e0 is the
quotient by the two-sided ideal generated by e0: delete the vertex, delete
every arrow touching it, and kill every relation term whose path passes
through it.  Dimensions are computed by counting normal words; the
abelianization adds loop commutators and kills the surviving non-loop
arrows (each equals a commutator with an idempotent).

Gopakumar-Vafa extraction solves dim = sum n_i i^2 with n_1 = dim of the
abelianization by exhaustive enumeration; n_i <= dim / i^2 bounds the
search.  When several tuples satisfy the constraints all are reported.

Reported dimensions are those of the complete local contraction algebra
(the completion at the arrow ideal): for inhomogeneous relation ideals the
plain quotient can carry extra semisimple summands supported away from the
origin, and `completed_dimension` removes them exactly by computing the
stable power of the arrow ideal.  For homogeneous ideals the two notions
coincide with the graded word count.  The powers come from one loop:
m^(k+1) = span{x f} over the arrows x and a basis f of m^k, since every
path of length >= 1 is x*q and q*m^k lies in the ideal m^k.  Its rows are
primitive integer vectors on the normal-word basis, reduced fraction free.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from .ncgb import (
    Budget,
    BudgetExceededError,
    INFINITE,
    InfiniteDimensionError,
    complete_groebner,
    enumerate_normal_words,
    reduce_poly,
)
from .pathalg import (
    AlgebraPresentation,
    Element,
    PathAlgebraError,
    Quiver,
    algebra_map,
    arrow_path,
    compose,
)


class ContractionError(PathAlgebraError):
    pass


class ContractionReport:
    """dim, abelianized dim, and the admissible GV tuples (n1..n6)."""

    def __init__(self, presentation, dim, dim_ab, gv_solutions):
        self.presentation = presentation
        self.dim = dim
        self.dim_ab = dim_ab
        self.gv_solutions = gv_solutions

    def __repr__(self):
        return "ContractionReport(dim=%s, dim_ab=%s, gv=%s)" % (
            self.dim, self.dim_ab, self.gv_solutions)


def contraction_presentation(alg: AlgebraPresentation, e0) -> AlgebraPresentation:
    """The quotient A / A e0 A on the remaining quiver: its relations are the
    nonzero images of A's under the `algebra_map` that kills e0's arrows."""
    e0 = str(e0)
    if e0 not in alg.quiver.vertices:
        raise ContractionError("vertex %r is not in the quiver" % e0)
    keep_vertices = [v for v in alg.quiver.vertices if v != e0]
    if not keep_vertices:
        raise ContractionError("contraction would remove every vertex")
    dropped = {a.name: None for a in alg.quiver.arrows if e0 in (a.source, a.target)}
    quiver = Quiver(keep_vertices, [(a.name, a.source, a.target, a.degree)
                                    for a in alg.quiver.arrows if a.name not in dropped],
                    name=(alg.quiver.name + "-con") if alg.quiver.name else "")
    images = (algebra_map(r, quiver, alg.params, dropped) for r in alg.relations)
    relations = [img for img in images if not img.is_zero()]
    precedence = None
    if alg.precedence:
        precedence = [n for n in alg.precedence if n not in dropped]
    return AlgebraPresentation(quiver, alg.params, relations,
                               name=(alg.name + "-con") if alg.name else "contraction",
                               precedence=precedence, gb_degree=alg.gb_degree)


def abelianization(alg: AlgebraPresentation) -> AlgebraPresentation:
    """Quotient by all commutators: kill non-loop arrows, commute loops."""
    extra: List[Element] = []
    loops_at = {}
    for a in alg.quiver.arrows:
        if a.source == a.target:
            loops_at.setdefault(a.source, []).append(a.name)
        else:
            extra.append(alg.arrow(a.name))  # [e_src, a] = a
    for v, names in sorted(loops_at.items()):
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                x, y = alg.arrow(names[i]), alg.arrow(names[j])
                extra.append(x * y - y * x)
    return alg.with_relations(list(alg.relations) + extra,
                              name=(alg.name + "-ab") if alg.name else "abelianization")


def completed_dimension(alg: AlgebraPresentation, budget: Optional[Budget] = None):
    """Dimension of the completion of the quotient at the arrow ideal.

    The quotient A can pick up semisimple summands supported away from the
    origin (the ideal need not be homogeneous); the contraction algebra of
    the flops literature is the complete local one.  For finite-dimensional
    A the arrow-ideal powers m^k stabilize at m^infty and the completion is
    A/m^infty, so dim = dim A - dim m^infty.

    One loop over the powers computes it on the normal-word basis: m^0 = A
    is spanned by the unit vectors, and m^(k+1) = span{L_x f} over the
    arrows x and a basis f of m^k, where L_x is left multiplication by x
    (every path of length >= 1 is x*q, and q*m^k lies in the ideal m^k).
    The loop stops when the dimension stops falling.  Each L_x is scaled
    by the lcm of its entry denominators, which keeps every span, so the
    elimination is fraction free and each basis row is a primitive
    integer vector.
    """
    budget = budget or Budget()
    gb = complete_groebner(alg, budget=budget)
    try:
        words = enumerate_normal_words(gb)
    except InfiniteDimensionError:
        return INFINITE
    pos = {p: i for i, p in enumerate(words)}
    quiver, params = alg.quiver, alg.params

    # left multiplication by each arrow: integer columns {word: {word: n}}
    actions = []
    for a in quiver.arrows:
        ap = arrow_path(quiver, a.name)
        cols: Dict[int, Dict[int, Tuple[int, int]]] = {}
        for j, w in enumerate(words):
            p = compose(quiver, ap, w)
            if p is None:
                continue
            # the input has coefficient 1, so only a nonconstant leading
            # coefficient of a rule makes the scale differ from 1
            terms, scale = reduce_poly(Element.from_path(quiver, params, p), gb, budget)
            if not scale.is_one() or not all(c.is_constant() for c in terms.values()):
                raise ContractionError("completed dimension needs constant coefficients")
            if terms:
                cols[j] = {pos[q]: c.lead_ratio() for q, c in terms.items()}
        scale = lcm(*(d for col in cols.values() for _, d in col.values()))
        actions.append({j: {k: n * (scale // d) for k, (n, d) in col.items()}
                        for j, col in cols.items()})

    power = {j: {j: 1} for j in range(len(words))}  # echelon basis of m^0 = A
    while power:
        nxt: Dict[int, Dict[int, int]] = {}
        for mat in actions:
            for f in power.values():
                row: Dict[int, int] = {}
                for j, c in f.items():
                    for k, ck in mat.get(j, {}).items():
                        s = row.get(k, 0) + c * ck
                        if s:
                            row[k] = s
                        else:
                            del row[k]
                _reduce_into(nxt, row)
        if len(nxt) == len(power):
            break
        power = nxt
    return len(words) - len(power)


def _reduce_into(basis: Dict[int, Dict[int, int]], row: Dict[int, int]) -> None:
    """Fraction-free elimination of an integer row against an echelon basis
    {pivot: primitive row with a positive pivot}; a nonzero remainder joins
    the basis, made primitive."""
    while row:
        j = min(row)
        piv = basis.get(j)
        if piv is None:
            g = gcd(*row.values())
            if row[j] < 0:
                g = -g
            basis[j] = {k: v // g for k, v in row.items()}
            return
        g = gcd(row[j], piv[j])
        f, lp = row[j] // g, piv[j] // g
        if lp != 1:
            row = {k: lp * v for k, v in row.items()}
        for k, v in piv.items():
            s = row.get(k, 0) - f * v
            if s:
                row[k] = s
            else:
                del row[k]


def contraction_dims(alg: AlgebraPresentation, e0,
                     budget: Optional[Budget] = None) -> Tuple[object, object]:
    """(dim, dim_ab) of the (complete local) contraction algebra at e0."""
    return _dims_of(contraction_presentation(alg, e0), budget)


def _dims_of(con: AlgebraPresentation, budget: Optional[Budget]) -> Tuple[object, object]:
    """(dim, dim_ab) of a contraction presentation that is already built,
    both counted against one budget."""
    budget = budget or Budget()
    dims = []
    for name, pres in (("dim", con), ("dim_ab", abelianization(con))):
        try:
            dims.append(completed_dimension(pres, budget))
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                "contraction dimension did not finish (%s): %s (an incomplete basis or "
                "completion-sensitivity of the presentation are possible causes)"
                % (name, exc), partial=exc.partial)
    return tuple(dims)


def gv_invariants(dim: int, dim_ab: int, length: Optional[int] = None) -> List[Tuple[int, ...]]:
    """All (n1..n6) with n1 = dim_ab, sum n_i i^2 = dim, and the length cut."""
    if dim < dim_ab or dim_ab < 0:
        raise ContractionError("need dim >= dim_ab >= 0, got (%s, %s)" % (dim, dim_ab))
    if length is not None and not 1 <= length <= 6:
        raise ContractionError("length must be 1..6, got %s" % length)
    n1 = dim_ab
    rest = dim - n1
    if rest < 0:
        return []
    solutions = []
    bounds = [rest // (i * i) for i in range(2, 7)]

    def walk(i, remaining, partial):
        if i == 7:
            if remaining == 0:
                solutions.append(tuple([n1] + partial))
            return
        for ni in range(bounds[i - 2], -1, -1):
            used = ni * i * i
            if used <= remaining:
                walk(i + 1, remaining - used, partial + [ni])

    walk(2, rest, [])
    solutions.sort(reverse=True)
    if length is not None:
        solutions = [
            s for s in solutions
            if (length == 1 or s[length - 1] > 0) and all(x == 0 for x in s[length:])
        ]
    return solutions


def contraction_report(alg: AlgebraPresentation, e0, length: Optional[int] = None,
                       budget: Optional[Budget] = None) -> ContractionReport:
    con = contraction_presentation(alg, e0)
    dim, dim_ab = _dims_of(con, budget)
    if dim == INFINITE or dim_ab == INFINITE:
        return ContractionReport(con, dim, dim_ab, [])
    return ContractionReport(con, dim, dim_ab, gv_invariants(dim, dim_ab, length))
