"""The flop pipeline: hypersurfaces, matrix factorizations, superpotentials.

* The center of a catalog algebra is a hypersurface over the commutative
  subring generated by the auxiliary central elements (y, z): normalize
  x'^2 against a truncated Groebner basis, expand it over the free basis
  {monomial in y,z} x {e0, x'}, and center x := x' - P/2 to get f = x^2 - g.
* The rank-l module is free over that subring on its 2l generators, so
  expanding the x-action NF(x . g_i) over {monomial times generator} reads
  off the square matrix C with x.g_i = sum_j C_ij g_j and
  (xI - C)(xI + C) = f I.  Both expansions are unique by freeness, which
  makes P, Q and C canonical and independent of the monomial order.
  Each is one leading-word echelon solve over Q[params] on the normal
  forms' words (`_express_in_span`), with all targets of a call sharing
  one echelon of the columns.
* A recorded change of basis (`PipelineData.nice_basis`) is one ring map,
  applied once to P and Q, and to C; a given hypersurface decides the
  pipeline and the basis of its factorisation.
* Presentations push forward along classifying maps on the parameter ring.
* Superpotentials are checked by cyclic differentiation plus two-sided
  ideal membership in both directions; explicit chart representations are
  checked by evaluating every relation on matrices.

The binding contract for every produced factorization is the exact
identity C^2 = g I in the commutative polynomial ring; it is checked
before anything is returned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .catalog import CheckReport, PipelineData
from .coeff import MultiPoly, ParamRing, RatFunc, parse_poly
from .ncgb import (
    Budget,
    GroebnerBasis,
    reduce_element,
    reduce_poly,
    truncated_groebner,
)
from .pathalg import (
    AlgebraPresentation,
    Element,
    MonomialOrder,
    Path,
    PathAlgebraError,
    algebra_map,
    idempotent_path,
    is_multiple,
)


class PipelineError(PathAlgebraError):
    pass


class TruncationInsufficientError(PipelineError):
    """The truncated basis cannot normalize the requested element into the
    expected shape; retry with the suggested degree."""


# ---------------------------------------------------------------------------
# hypersurface recovery
# ---------------------------------------------------------------------------

class Hypersurface:
    """f = x^2 - g with g in Q[params][aux vars], plus the centering data.

    NF(x'^2) decomposes as P x' + Q over the free module on {e0, x'}; the
    centering x := x' - P/2 gives f = x^2 - g with g = Q + P^2/4.  `ring`
    is the pipeline parameter ring extended by the auxiliary generator
    names and the variable x.  In a nice basis, P, Q and g are the images of
    the raw ones under `basis_map` (None in the raw basis); `gb`,
    `x_centered` and `aux_elements` always belong to the raw pipeline.
    """

    def __init__(self, pipeline: PipelineData, gb: GroebnerBasis,
                 P: MultiPoly, Q: MultiPoly, x_centered: Element,
                 aux_elements, basis_map=None):
        self.pipeline = pipeline
        self.gb = gb
        self.P = P
        self.Q = Q
        self.x_centered = x_centered
        self.aux_elements = aux_elements
        base = P.ring
        self.ring = ParamRing(("x",) + base.names)
        self.g = (Q + P * P * Fraction(1, 4)).cast(self.ring)
        x = self.ring.var("x")
        self.equation = x * x - self.g
        self.basis_map = basis_map

    def __repr__(self):
        return "Hypersurface(f = %s)" % self.equation


def _pipeline_of(source) -> PipelineData:
    if isinstance(source, PipelineData):
        return source
    if hasattr(source, "pipeline"):
        return source.pipeline()
    raise PipelineError("expected a catalog entry or PipelineData, got %r" % (source,))


class _AuxMonomials:
    """Normal forms of the auxiliary central monomials z^i y^j (...).

    The corner e0 A e0 and the generator module are free over the
    commutative subring generated by the auxiliary elements, so expanding
    a normal form over these monomial columns has at most one solution;
    `_express_in_span` finds it exactly.
    """

    def __init__(self, pipe: PipelineData, gb: GroebnerBasis, budget: Budget):
        self.pipe = pipe
        self.gb = gb
        self.budget = budget
        self.names = [n for n, _ in pipe.aux]
        self.elements = [e for _, e in pipe.aux]
        self.weights = [pipe.graded_degree_element(e) for e in self.elements]
        self.ring = pipe.presentation.params.extend(self.names)
        self._powers = {}

    def monomials(self, bound: int) -> List[Tuple[int, ...]]:
        out = []

        def walk(i, exps, used):
            if i == len(self.weights):
                out.append(tuple(exps))
                return
            k = 0
            while used + k * self.weights[i] <= bound:
                walk(i + 1, exps + [k], used + k * self.weights[i])
                k += 1

        walk(0, [], 0)
        out.sort(key=lambda e: (sum(w * k for w, k in zip(self.weights, e)), e))
        return out

    def monomial_poly(self, exps: Tuple[int, ...]) -> MultiPoly:
        # the auxiliary names come last in the ring
        return MultiPoly(self.ring, {(0,) * (len(self.ring.names) - len(exps)) + exps: 1})

    def monomial_element(self, exps: Tuple[int, ...]) -> Element:
        cached = self._powers.get(exps)
        if cached is not None:
            return cached
        pres = self.pipe.presentation
        elem = Element.identity(pres.quiver, pres.params)
        for e, k in zip(self.elements, exps):
            for _ in range(k):
                elem = elem * e
        elem = reduce_element(elem, self.gb, self.budget)
        self._powers[exps] = elem
        return elem


def _express_in_span(targets, columns, params, order: MonomialOrder
                     ) -> List[Optional[Dict]]:
    """Solve target = sum_k coeff_k * column_k exactly for every target.

    Returns one solution per target, or None where that target does not
    lie in the span.  Targets and columns are fraction-free pairs
    (poly terms, scale) with terms = scale * value.  Columns are linearly
    independent by freeness, so each solution is unique.

    A leading-word echelon over Q[params]: the words are ranked once under
    `order`, and each column in turn is reduced by the pivots at its
    leading word until its lead is no pivot's; what is left becomes a
    pivot, kept with its combination of the original columns.  A pivot
    with a constant leading coefficient is made monic, so reducing by it
    is an exact subtraction.  A nonconstant one is used fraction free, as
    `ncgb` uses a rule with a non-unit lc: the working row, its
    combination and its scale are multiplied by it first.  A target is
    reduced the same way from its largest word down; it lies in the span
    exactly when nothing is left.  A column that reduces to zero depends
    on the earlier ones and keeps coefficient zero.

    Any total order on the words gives the same answers.  `order` is the
    basis's, so a column's lead is its normal form's leading word; on the
    shipped pipelines through length 4 every pivot then has a constant
    leading coefficient, and the elimination divides no polynomial.
    """
    # idempotents at different vertices share an order key
    ranked = sorted({p for _, col_terms, _ in columns for p in col_terms},
                    key=lambda p: (order.key(p), p.source))
    rank = {p: i for i, p in enumerate(ranked)}
    one = params.one()
    pivots: Dict[int, Tuple[Dict[int, MultiPoly], Dict[int, MultiPoly]]] = {}

    def reduce(row):
        # row = scale * start + sum_j comb_j * column_j throughout
        comb: Dict[int, MultiPoly] = {}
        scale = one
        while row:
            w = max(row)
            pivot = pivots.get(w)
            if pivot is None:
                break
            p_row, p_comb = pivot
            a = -row[w]
            lc = p_row[w]
            if not lc.is_one():
                row = {k: c * lc for k, c in row.items()}
                comb = {j: c * lc for j, c in comb.items()}
                scale = scale * lc
            _add_multiple(row, p_row, a)
            _add_multiple(comb, p_comb, a)
        return row, comb, scale

    for j, (_, col_terms, _) in enumerate(columns):
        row, comb, scale = reduce({rank[p]: c for p, c in col_terms.items()})
        if not row:
            continue
        comb[j] = scale
        lead = max(row)
        if row[lead].is_constant():
            n, d = row[lead].lead_ratio()
            row = {k: c.scale(d, n) for k, c in row.items()}
            comb = {i: c.scale(d, n) for i, c in comb.items()}
        pivots[lead] = (row, comb)

    out: List[Optional[Dict]] = []
    for t_terms, t_scale in targets:
        if any(p not in rank for p in t_terms):
            out.append(None)
            continue
        row, comb, scale = reduce({rank[p]: c for p, c in t_terms.items()})
        # nothing left: scale * target = -sum_j comb_j * column_j
        out.append(None if row else {
            columns[j][0]: RatFunc(-c * columns[j][2], scale * t_scale)
            for j, c in comb.items()})
    return out


def _add_multiple(acc: Dict[int, MultiPoly], vec: Dict[int, MultiPoly], a: MultiPoly):
    """acc += a * vec in place, dropping the entries that cancel."""
    for k, c in vec.items():
        s = acc[k] + a * c if k in acc else a * c
        if s.is_zero():
            del acc[k]
        else:
            acc[k] = s


def _expand(targets, module, aux: _AuxMonomials, gb: GroebnerBasis, budget: Budget,
            missing: str) -> List[Dict]:
    """Expand each target's normal form over a free module on the subring.

    `module` lists the generators as (key, normal form, weight bound); the
    columns are NF(m * generator) over the auxiliary monomials m up to the
    bound, generator by generator.  Returns one {key: polynomial in the
    auxiliary variables} per target, with every key present.  A target
    outside the span raises TruncationInsufficientError with the message
    `missing` % {"i": target index, "degree": truncation, "next": hint}; the
    hint is the presentation's recorded gb_degree when that is higher (a
    catalog pipeline records its least working degree), else degree + 1.
    """
    columns = []
    for key, nf, bound in module:
        for m in aux.monomials(bound):
            terms, scale = reduce_poly(aux.monomial_element(m) * nf, gb, budget)
            if terms:
                columns.append(((key, m), terms, scale))
    images = [reduce_poly(t, gb, budget) for t in targets]
    solutions = _express_in_span(images, columns, aux.pipe.presentation.params, gb.order)
    ring = aux.ring
    out = []
    for i, solution in enumerate(solutions):
        if solution is None:
            degree = gb.truncation_degree
            recorded = aux.pipe.presentation.gb_degree or 0
            raise TruncationInsufficientError(
                missing % {"i": i, "degree": degree, "next": max(recorded, degree + 1)})
        polys = {key: ring.zero() for key, _, _ in module}
        for (key, m), coeff in solution.items():
            if not coeff.is_polynomial():
                raise PipelineError("non-polynomial expansion coefficient %s" % coeff)
            polys[key] = polys[key] + coeff.as_poly().cast(ring) * aux.monomial_poly(m)
        out.append(polys)
    return out


def hypersurface(source, gb_degree: Optional[int] = None, basis: str = "raw",
                 budget: Optional[Budget] = None) -> Hypersurface:
    """Recover the hypersurface equation of the center from the pipeline.

    Computes NF(x'^2) and expands it over the monomials in the auxiliary
    central generators paired with {e0, x'}; the expansion coefficients
    assemble P and Q with f = x^2 - g, g = Q + P^2/4 after centering.
    basis='nice' then substitutes the recorded change of basis into P and
    Q once the raw result passes its centering check.  Rewriting is sound at
    any truncation and the module is free, so a successful expansion is the
    exact one; a failed one raises TruncationInsufficientError with a hint.
    """
    if basis not in ("raw", "nice"):
        raise PipelineError("unknown basis %r" % (basis,))
    pipe = _pipeline_of(source)
    if basis == "nice" and pipe.nice_basis is None:
        raise PipelineError("no recorded nice basis for %s" % (pipe.presentation.name or "?"))
    budget = budget or Budget()
    pres = pipe.presentation
    gb = truncated_groebner(pres, max_degree=gb_degree, budget=budget)
    x_prime = pipe.x_elem

    ep = x_prime.endpoints()
    if ep is None or ep[0] != ep[1]:
        raise PipelineError("x' must be a cycle, got endpoints %r" % (ep,))
    e0 = idempotent_path(pres.quiver, ep[0])
    e0_elem = Element.from_path(pres.quiver, pres.params, e0)

    aux = _AuxMonomials(pipe, gb, budget)
    xw = pipe.graded_degree_element(x_prime)
    module = [("Q", e0_elem, 2 * xw), ("P", reduce_element(x_prime, gb, budget), xw)]
    (expansion,) = _expand([x_prime * x_prime], module, aux, gb, budget,
                           "NF(x'^2) does not expand over the central monomials at "
                           "truncation degree %(degree)d; try %(next)d")
    P, Q = expansion["P"], expansion["Q"]

    # center: x := x' - P/2 with the auxiliary variables substituted back
    # by their defining elements
    half_P = _poly_as_element(P * Fraction(-1, 2), aux, e0_elem)
    x_centered = x_prime + half_P
    hyp = Hypersurface(pipe, gb, P, Q, x_centered, aux)

    # the centering must reduce x^2 to the pure central polynomial g
    check = reduce_element(x_centered * x_centered, gb, budget)
    g_elem = reduce_element(_poly_as_element(hyp.g.cast(aux.ring), aux, e0_elem), gb, budget)
    if check != g_elem:
        raise PipelineError("internal: NF(x^2) disagrees with g after centering")
    if basis == "raw":
        return hyp
    ring, mapping = pipe.nice_basis
    return Hypersurface(pipe, gb, P.substitute(mapping, ring), Q.substitute(mapping, ring),
                        x_centered, aux, pipe.nice_basis)


def _poly_as_element(poly: MultiPoly, aux: _AuxMonomials, e0_elem: Element) -> Element:
    """Evaluate a polynomial in the auxiliary variables on their elements."""
    pres = aux.pipe.presentation
    base = pres.params
    out = Element.zero(pres.quiver, base)
    aux_pos = [poly.ring.index(n) for n in aux.names]
    for exp, c in sorted(poly.terms.items()):
        rest = list(exp)
        mono = []
        for i, pos in enumerate(aux_pos):
            mono.append(exp[pos])
            rest[pos] = 0
        coeff_poly = MultiPoly(poly.ring, {tuple(rest): c}).cast(base)
        term = aux.monomial_element(tuple(mono)) * e0_elem
        out = out + term.scale(RatFunc(coeff_poly))
    return out


# ---------------------------------------------------------------------------
# matrix factorizations
# ---------------------------------------------------------------------------

class MatrixFactorization:
    """C with x.g_i = sum_j C_ij g_j and C^2 = g I exactly.

    Packaging (xI - C)(xI + C) = (x^2 - g) I = f I over Q[params][y,z][x].
    """

    def __init__(self, hyp: Hypersurface, generators: List[Path], C: List[List[MultiPoly]]):
        self.hypersurface = hyp
        self.generators = generators
        self.C = C
        self.size = len(generators)
        self.g = hyp.g.cast(hyp.P.ring)

    def check(self) -> bool:
        """Exact verification of C^2 = g I in the commutative ring."""
        return all(e.is_zero() for row in self.residual() for e in row)

    def residual(self) -> List[List[MultiPoly]]:
        """C^2 - g I, entry by entry."""
        out = _mat_mul(self.C, self.C, self.g.ring)
        for i in range(self.size):
            out[i][i] = out[i][i] - self.g
        return out

    def x_plus(self) -> List[List[MultiPoly]]:
        return self._shift(1)

    def x_minus(self) -> List[List[MultiPoly]]:
        return self._shift(-1)

    def _shift(self, sign: int) -> List[List[MultiPoly]]:
        ring = self.hypersurface.ring
        x = ring.var("x")
        out = []
        for i in range(self.size):
            row = []
            for j in range(self.size):
                entry = self.C[i][j].cast(ring) * sign
                if i == j:
                    entry = entry + x
                row.append(entry)
            out.append(row)
        return out

    def __repr__(self):
        return "MatrixFactorization(%dx%d, C^2 = g I)" % (self.size, self.size)


def matrix_factorization(source, gb_degree: Optional[int] = None, basis: str = "raw",
                         budget: Optional[Budget] = None,
                         hyp: Optional[Hypersurface] = None) -> MatrixFactorization:
    """Read off C from the x-action on the 2l module generators.

    Each NF(x . g_i) is expanded over the module basis {m g_j} (auxiliary
    monomial times generator, unique by freeness).  The module basis is one
    column matrix for all 2l rows of C, so it is echelonised once and the
    2l images are reduced against that one echelon; `hyp.basis_map`, if
    set, then maps C.  C^2 = g I is checked exactly before returning.
    A given `hyp` decides the pipeline and the basis (`basis` must name
    it); without one, the hypersurface is computed on the same budget.
    """
    budget = budget or Budget()
    if hyp is None:
        hyp = hypersurface(source, gb_degree=gb_degree, basis=basis, budget=budget)
    elif basis != ("raw" if hyp.basis_map is None else "nice"):
        raise PipelineError("basis %r disagrees with the given hypersurface" % (basis,))
    pipe = hyp.pipeline
    gb = hyp.gb
    pres = pipe.presentation

    gen_paths: List[Path] = []
    gen_nfs: List[Element] = []
    for i, g_el in enumerate(pipe.generators):
        if len(g_el.terms) != 1:
            raise PipelineError("generator %d is not a single path" % i)
        (p, c), = g_el.terms.items()
        if not c.is_one():
            raise PipelineError("generator %d is not monic" % i)
        nf = reduce_element(g_el, gb, budget)
        if nf.is_zero():
            raise PipelineError("generator %d (%s) reduces to zero" % (i, p.format(pres.quiver)))
        gen_paths.append(p)
        gen_nfs.append(nf)

    x = hyp.x_centered
    weights = [pipe.graded_degree_element(g) for g in gen_nfs]
    bound = pipe.graded_degree_element(x) + max(weights) - min(weights)
    rows = _expand([x * g for g in gen_nfs], [(j, g, bound) for j, g in enumerate(gen_nfs)],
                   hyp.aux_elements, gb, budget,
                   "NF(x.g_%(i)d) does not expand over the generator module basis at "
                   "truncation %(degree)d; try %(next)d")
    C = [[row[j] for j in range(len(gen_nfs))] for row in rows]
    if hyp.basis_map is not None:
        ring, mapping = hyp.basis_map
        C = [[e.substitute(mapping, ring) for e in row] for row in C]

    mf = MatrixFactorization(hyp, gen_paths, C)
    if not mf.check():
        bad = [(i, j) for i, row in enumerate(mf.residual())
               for j, e in enumerate(row) if not e.is_zero()]
        raise PipelineError(
            "matrix factorization identity C^2 = g I fails at entries %s" % bad[:6])
    return mf


# ---------------------------------------------------------------------------
# specialization along classifying maps
# ---------------------------------------------------------------------------

def specialize(alg: AlgebraPresentation, mapping: Mapping[str, Union[str, MultiPoly]],
               ring: ParamRing) -> AlgebraPresentation:
    """Push the presentation along a parameter substitution into `ring`.

    `mapping` sends parameter names to polynomials over `ring` (texts are
    parsed over it); unmapped parameters must exist in `ring` and are
    retained.
    """
    poly_map: Dict[str, MultiPoly] = {}
    for k, v in mapping.items():
        alg.params.index(k)
        poly_map[k] = parse_poly(v, ring) if isinstance(v, str) else v.cast(ring)
    images = (algebra_map(r, alg.quiver, ring, coeff=lambda c: c.substitute(poly_map, ring))
              for r in alg.relations)
    return AlgebraPresentation(
        alg.quiver, ring, [img for img in images if not img.is_zero()],
        name=alg.name + "-specialized" if alg.name else "specialized",
        precedence=alg.precedence, gb_degree=alg.gb_degree,
    )


# ---------------------------------------------------------------------------
# superpotentials
# ---------------------------------------------------------------------------

def cyclic_derivative(w: Element, arrow: str) -> Element:
    """For each occurrence of the arrow in each cyclic word, rotate that
    occurrence to the front and delete it; sum with coefficients."""
    quiver = w.quiver
    a = quiver.arrow(arrow)
    terms: Dict[Path, RatFunc] = {}
    for path, coeff in w.terms.items():
        if path.source != path.target:
            raise PipelineError(
                "cyclic derivative needs cyclic terms; %s runs %s -> %s"
                % (path.format(quiver), path.source, path.target))
        arrows = path.arrows
        for i, ai in enumerate(arrows):
            if ai != a.index:
                continue
            rotated = Path(quiver, a.target, arrows[i + 1:] + arrows[:i], _check=False)
            s = terms.get(rotated)
            s = coeff if s is None else s + coeff
            if s.is_zero():
                del terms[rotated]
            else:
                terms[rotated] = s
    return Element(quiver, w.params, terms)


class SuperpotentialReport(CheckReport):
    def __init__(self):
        super().__init__()
        self.derivatives: Dict[str, Element] = {}
        self.derivative_normal_forms: Dict[str, Element] = {}


def _normal_forms(elements, ideal: AlgebraPresentation, degree: int, budget: Budget):
    """Yield (normal form, failure detail) for each element modulo the ideal
    generated by `ideal.relations`, against its basis truncated at `degree`.

    Zero, or a nonzero constant multiple of a generator (same words, one
    ratio: `is_multiple`), lies in the ideal by inspection: its normal
    form is zero.
    The basis is completed once, at the first element inspection cannot
    place, and never when inspection places them all.  A nonzero normal
    form is also returned formatted in the basis order, as the detail.
    """
    by_words: Dict[frozenset, List[Element]] = {}
    for g in ideal.relations:
        if not g.is_zero():
            by_words.setdefault(frozenset(g.terms), []).append(g)
    gb = None
    for x in elements:
        if x.is_zero() or any(is_multiple(x, g) for g in by_words.get(frozenset(x.terms), ())):
            yield Element.zero(x.quiver, x.params), ""
            continue
        if gb is None:
            gb = truncated_groebner(ideal, max_degree=degree, budget=budget)
        nf = reduce_element(x, gb, budget)
        yield nf, "" if nf.is_zero() else nf.format(gb.order)


def verify_superpotential(alg: AlgebraPresentation, phi: Element,
                          gb_degree: Optional[int] = None,
                          budget: Optional[Budget] = None) -> SuperpotentialReport:
    """Check that the cyclic derivatives of phi match the relation ideal.

    Two directions, both up to the truncation degree: every derivative must
    reduce to zero against the relations (the derivatives lie in the
    ideal), and every relation must reduce to zero against the ideal
    generated by the nonzero derivatives.

    Both directions run one membership loop (`_normal_forms`).  An element
    that is zero, or a nonzero constant multiple of a generator of the other
    side, lies in that ideal by inspection, so an NCCR whose relations are
    its potential's cyclic derivatives verifies without any completion.
    The other side's basis is completed, once, only for an element that
    inspection cannot place.  Inspection reports what reduction would: the
    truncation degree is at least every generator's degree, and a truncated
    basis reduces each generator of degree up to its truncation to zero.
    """
    budget = budget or Budget()
    report = SuperpotentialReport()
    degree = gb_degree if gb_degree is not None else alg.gb_degree
    if degree is None:
        degree = max(phi.degree(), *(r.degree() for r in alg.relations)) + 4
    degree = max(degree, phi.degree(),
                 max((r.degree() for r in alg.relations if not r.is_zero()), default=1))

    derivs = report.derivatives = {a.name: cyclic_derivative(phi, a.name)
                                   for a in alg.quiver.arrows}
    for name, (nf, detail) in zip(derivs, _normal_forms(derivs.values(), alg, degree, budget)):
        report.derivative_normal_forms[name] = nf
        report.add("NF(d_%s phi) = 0" % name, nf.is_zero(), detail)

    dalg = alg.with_relations([d for d in derivs.values() if not d.is_zero()],
                              name=(alg.name or "algebra") + "-potential")
    for i, (nf, detail) in enumerate(_normal_forms(alg.relations, dalg, degree, budget)):
        report.add("relation %d in <d phi>" % i, nf.is_zero(), detail)
    return report


# ---------------------------------------------------------------------------
# representation verification
# ---------------------------------------------------------------------------

class Representation:
    """Dimension vector plus one matrix per arrow over a commutative ring.

    Matrix entries are polynomials over `ring`; `param_map` sends the
    algebra's parameters into that ring so relation coefficients can be
    evaluated.  A path acts by the left-to-right product of its arrow
    matrices, shapes dim(source) x dim(target).
    """

    def __init__(self, algebra: AlgebraPresentation, dims: Mapping[str, int],
                 matrices: Mapping[str, Sequence[Sequence]], ring: ParamRing,
                 param_map: Optional[Mapping[str, Union[str, MultiPoly]]] = None):
        self.algebra = algebra
        self.dims = {str(v): int(n) for v, n in dims.items()}
        self.ring = ring
        self.param_map = {
            k: (parse_poly(v, ring) if isinstance(v, str) else v)
            for k, v in (param_map or {}).items()
        }
        for v in algebra.quiver.vertices:
            if v not in self.dims:
                raise PipelineError("no dimension for vertex %r" % v)
        self.matrices: Dict[str, List[List[MultiPoly]]] = {}
        for a in algebra.quiver.arrows:
            if a.name not in matrices:
                raise PipelineError("missing matrix for arrow %r" % a.name)
            rows = matrices[a.name]
            m = [[parse_poly(e, ring) if isinstance(e, str) else MultiPoly.coerce(ring, e)
                  for e in row] for row in rows]
            want = (self.dims[a.source], self.dims[a.target])
            got = (len(m), len(m[0]) if m else 0)
            if want != got:
                raise PipelineError(
                    "matrix for %r has shape %r, expected %r" % (a.name, got, want))
            if any(len(row) != got[1] for row in m):
                raise PipelineError("matrix for %r has rows of different lengths" % a.name)
            self.matrices[a.name] = m

    def path_matrix(self, path: Path) -> List[List[MultiPoly]]:
        n = self.dims[path.source]
        out = [[self.ring.one() if i == j else self.ring.zero() for j in range(n)]
               for i in range(n)]
        for ai in path.arrows:
            name = self.algebra.quiver.arrows[ai].name
            out = _mat_mul(out, self.matrices[name], self.ring)
        return out

    def evaluate(self, elem: Element) -> List[List[MultiPoly]]:
        ep = elem.endpoints()
        if ep is None:
            raise PipelineError("cannot evaluate an endpoint-inhomogeneous element")
        rows, cols = self.dims[ep[0]], self.dims[ep[1]]
        acc = [[self.ring.zero() for _ in range(cols)] for _ in range(rows)]
        for path, coeff in elem.terms.items():
            c = coeff.substitute(self.param_map, self.ring)
            if not c.is_polynomial():
                raise PipelineError("coefficient %s is not polynomial in the chart ring" % c)
            cp = c.as_poly()
            mat = self.path_matrix(path)
            for i in range(rows):
                for j in range(cols):
                    acc[i][j] = acc[i][j] + cp * mat[i][j]
        return acc


def _mat_mul(a, b, ring):
    rows, mid, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[ring.zero() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(mid):
            e = a[i][k]
            if e.is_zero():
                continue
            for j in range(cols):
                out[i][j] = out[i][j] + e * b[k][j]
    return out


def verify_representation(alg: AlgebraPresentation, rep: Representation) -> CheckReport:
    """Evaluate every relation on the matrices; pass iff all vanish."""
    report = CheckReport()
    for i, r in enumerate(alg.relations):
        if r.is_zero():
            report.add("relation %d" % i, True)
            continue
        mat = rep.evaluate(r)
        ok = all(e.is_zero() for row in mat for e in row)
        detail = ""
        if not ok:
            bad = [(a, b) for a, row in enumerate(mat) for b, e in enumerate(row)
                   if not e.is_zero()]
            detail = "nonzero at %s" % bad[:4]
        report.add("relation %d" % i, ok, detail)
    return report
