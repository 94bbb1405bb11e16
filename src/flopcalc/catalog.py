"""Built-in presentations: the six universal flopping algebras and friends.

Contents:

* the five extended Dynkin diagrams used by the length classification,
  with dual Coxeter labels and a fixed orientation;
* preprojective and deformed preprojective algebras over those diagrams;
* the simple-reflection action on the Cartan parameter rings;
* one catalog entry per length 1..6 carrying the universal flopping
  algebra presentation, its central fibre, the commuting generators x', y,
  z, the 2l module generators, and the Weyl-invariant data that defines
  the parameter ring;
* specialized builtins: the Laufer flop, the explicit length-3 flop, and
  the length 4/5/6 quiver-with-superpotential examples.

One ordered table maps every public name to its entry (`catalog_entry`).
The universal algebras, their central fibres and the builtins are stored as
presentation-file text and parsed on access, so the catalog doubles as a
test corpus for the parser; the (deformed) preprojective algebras are
generated from their diagrams.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence, Tuple

from .coeff import MultiPoly, ParamRing, RatFunc, elementary_symmetric, parse_poly
from .pathalg import (
    AlgebraPresentation,
    Element,
    PathAlgebraError,
    Quiver,
    algebra_map,
    is_multiple,
    parse_element,
    parse_presentation,
)


class CatalogError(PathAlgebraError):
    pass


# ---------------------------------------------------------------------------
# Dynkin diagrams
# ---------------------------------------------------------------------------

class DynkinDiagram:
    """Extended ADE diagram: vertex 0 is the extending vertex (label 1).

    `labels[i]` is the dual Coxeter label of vertex i; `orientation` fixes
    one arrow per edge for the (pre)projective quivers.
    """

    def __init__(self, name: str, labels: Sequence[int],
                 orientation: Sequence[Tuple[str, int, int]]):
        self.name = name
        self.labels = tuple(labels)
        self.orientation = list(orientation)
        self.n = len(labels) - 1  # non-extending vertices are 1..n

    def vertices(self) -> List[int]:
        return list(range(self.n + 1))

    def multiplicity(self, i: int, j: int) -> int:
        """The number of edges joining i and j (2 for the doubled A1 bond)."""
        return sum(1 for _, s, t in self.orientation if {s, t} == {i, j})

    def param_ring(self) -> ParamRing:
        """H_Gamma presented on t1..tn; t0 is eliminated via the labels."""
        return ParamRing(["t%d" % i for i in range(1, self.n + 1)])

    def t_poly(self, i: int) -> MultiPoly:
        """t_i as a polynomial in the ring generators (t0 eliminated)."""
        ring = self.param_ring()
        if i == 0:
            out = ring.zero()
            for j in range(1, self.n + 1):
                out = out - ring.const(self.labels[j]) * ring.var("t%d" % j)
            return out
        return ring.var("t%d" % i)

    def __repr__(self):
        return "DynkinDiagram(%s)" % self.name


DIAGRAMS: Dict[str, DynkinDiagram] = {
    "A1": DynkinDiagram(
        "A1", labels=(1, 1),
        orientation=[("a0", 0, 1), ("a1", 1, 0)],
    ),
    "D4": DynkinDiagram(
        "D4", labels=(1, 1, 1, 1, 2),
        orientation=[("a0", 0, 4), ("a1", 1, 4), ("a2", 2, 4), ("a3", 3, 4)],
    ),
    "E6": DynkinDiagram(
        "E6", labels=(1, 2, 1, 2, 1, 2, 3),
        orientation=[("a0", 0, 1), ("a1", 1, 6), ("a2", 2, 3), ("a3", 3, 6),
                     ("a4", 4, 5), ("a5", 5, 6)],
    ),
    "E7": DynkinDiagram(
        "E7", labels=(1, 2, 3, 2, 1, 2, 3, 4),
        orientation=[("a0", 0, 1), ("a1", 1, 2), ("a2", 2, 7), ("a3", 3, 7),
                     ("a4", 4, 5), ("a5", 5, 6), ("a6", 6, 7)],
    ),
    "E8": DynkinDiagram(
        "E8", labels=(1, 2, 3, 4, 5, 3, 2, 4, 6),
        orientation=[("a0", 0, 1), ("a1", 1, 2), ("a2", 2, 3), ("a3", 3, 4),
                     ("a4", 4, 8), ("a5", 5, 8), ("a6", 6, 7), ("a7", 7, 8)],
    ),
}


class Coloring:
    """A length-classification pair: extended diagram plus one black vertex."""

    def __init__(self, diagram: DynkinDiagram, black_vertex: int, length: int):
        self.diagram = diagram
        self.black_vertex = black_vertex
        self.length = length
        if diagram.labels[black_vertex] != length:
            raise CatalogError(
                "black vertex %d of %s has label %d, not the length %d"
                % (black_vertex, diagram.name, diagram.labels[black_vertex], length)
            )

    def reflection_vertices(self) -> List[int]:
        """Generators of W_C: the uncolored non-extending vertices."""
        return [i for i in range(1, self.diagram.n + 1) if i != self.black_vertex]

    def __repr__(self):
        return "Coloring(%s, black=%d, length=%d)" % (
            self.diagram.name, self.black_vertex, self.length)


# ---------------------------------------------------------------------------
# (deformed) preprojective algebras
# ---------------------------------------------------------------------------

def _double_quiver(d: DynkinDiagram) -> Quiver:
    arrows = []
    for name, s, t in d.orientation:
        arrows.append((name, str(s), str(t), 1))
    for name, s, t in d.orientation:
        arrows.append(("A" + name[1:], str(t), str(s), 1))
    return Quiver([str(v) for v in d.vertices()], arrows, name=d.name)


def _commutator_relations(d: DynkinDiagram, quiver: Quiver, ring: ParamRing,
                          deformed: bool) -> List[Element]:
    """One relation e_v (sum [a, a*]) e_v = t_v e_v per vertex."""
    rels = []
    for v in d.vertices():
        rel = Element.zero(quiver, ring)
        for name, s, t in d.orientation:
            a = Element.arrow(quiver, ring, name)
            astar = Element.arrow(quiver, ring, "A" + name[1:])
            if s == v:
                rel = rel + a * astar
            if t == v:
                rel = rel - astar * a
        if deformed:
            tv = RatFunc(d.t_poly(v).cast(ring))
            rel = rel - Element.idempotent(quiver, ring, str(v)).scale(tv)
        rels.append(rel)
    return rels


def preprojective(d: DynkinDiagram) -> AlgebraPresentation:
    """Double quiver with the commutator-sum relation split per vertex."""
    quiver = _double_quiver(d)
    ring = ParamRing([])
    rels = _commutator_relations(d, quiver, ring, deformed=False)
    return AlgebraPresentation(quiver, ring, rels, name="preprojective-%s" % d.name)


def deformed_preprojective(d: DynkinDiagram) -> AlgebraPresentation:
    """Crawley-Boevey--Holland deformation over the Cartan parameter ring.

    The single linear relation among the t_i is eliminated by solving for
    t0, so the coefficient ring is the genuine polynomial ring Q[t1..tn].
    """
    quiver = _double_quiver(d)
    ring = d.param_ring()
    rels = _commutator_relations(d, quiver, ring, deformed=True)
    return AlgebraPresentation(quiver, ring, rels, name="deformed-preprojective-%s" % d.name)


def apply_simple_reflection(d: DynkinDiagram, i: int, p: MultiPoly) -> MultiPoly:
    """The ring map s_i on H_Gamma: t_i -> -t_i, t_j -> t_j + k t_i (k edges)."""
    if not 1 <= i <= d.n:
        raise CatalogError("s_%d is not a reflection of %s (vertices 1..%d)" % (i, d.name, d.n))
    ring = d.param_ring()
    if p.ring != ring:
        p = p.cast(ring)
    mapping = {}
    ti = ring.var("t%d" % i)
    for j in range(1, d.n + 1):
        name = "t%d" % j
        if j == i:
            mapping[name] = -ti
        else:
            k = d.multiplicity(i, j)
            if k:
                mapping[name] = ring.var(name) + ring.const(k) * ti
    return p.substitute(mapping, ring)


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------

class InvariantData:
    """tau variables and the elementary-symmetric definitions of the H_l
    generators inside H_Gamma."""

    def __init__(self, t_def: str, taus: Dict[str, List[str]],
                 sigma_defs: List[Tuple[str, int, str]]):
        self.t_def = t_def            # polynomial text for the generator t
        self.taus = taus              # group name -> list of polynomial texts
        self.sigma_defs = sigma_defs  # (param name, k, tau group); value is -sigma_k

    def generator_polys(self, d: DynkinDiagram) -> Dict[str, MultiPoly]:
        ring = d.param_ring()
        t0 = d.t_poly(0)
        out = {"t": parse_poly(self.t_def, ring.extend(["t0"])).substitute({"t0": t0}, ring)}
        for name, k, group in self.sigma_defs:
            taus = [parse_poly(s, ring) for s in self.taus[group]]
            out[name] = -elementary_symmetric(k, taus)
        return out

    def tau_polys(self, d: DynkinDiagram) -> Dict[str, List[MultiPoly]]:
        ring = d.param_ring()
        return {g: [parse_poly(s, ring) for s in texts] for g, texts in self.taus.items()}


class Builtin:
    """A catalog entry: a named presentation with optional extras.

    `text` is the presentation-file text, or a function that builds the
    presentation (the generated preprojective algebras).  `family` is the
    length of the universal flopping algebra whose x', auxiliary generators
    and module generators the pipeline reads over this presentation; None
    when the entry has no pipeline data.  `nice` is the recorded change of
    basis, (nice parameter names, raw parameter -> polynomial text in them).
    `eliminated` names the parameter-eliminated twin to use for contractions.
    """

    __slots__ = ("name", "text", "superpotential", "family", "eliminated", "nice")

    def __init__(self, name, text, superpotential=None, family=None, eliminated=None,
                 nice=None):
        self.name = name
        self.text = text
        self.superpotential = superpotential
        self.family = family
        self.eliminated = eliminated
        self.nice = nice

    def presentation(self) -> AlgebraPresentation:
        return self.text() if callable(self.text) else parse_presentation(self.text)

    def superpotential_element(self) -> Element:
        pres = self.presentation()
        return parse_element(self.superpotential, pres.quiver, pres.params)

    def pipeline(self) -> "PipelineData":
        """Pipeline data over this presentation, truncated at its entry in
        `_PIPELINE_DEGREES` (exact there: a successful expansion is unique);
        the text's own gb_degree stays the default of `gb` and `nf`.  A
        recorded nice basis becomes the ring map `PipelineData.nice_basis`,
        applied to the pipeline outputs."""
        if self.family is None:
            raise CatalogError("builtin %r has no pipeline data" % self.name)
        spec = _ENTRY_SPECS[self.family]
        pres = self.presentation()
        pres.gb_degree = _PIPELINE_DEGREES[self.name]
        nice_basis = None
        if self.nice is not None:
            names, texts = self.nice
            ring = ParamRing(tuple(names) + tuple(n for n, _ in spec["aux"]))
            nice_basis = (ring, {k: parse_poly(v, ring) for k, v in texts.items()})
        return PipelineData(pres, spec["x"], spec["aux"], spec["generators"], nice_basis)

    def __repr__(self):
        return "Builtin(%s)" % self.name


class FlopCatalogEntry(Builtin):
    """The universal flopping algebra of one length, which is its own family,
    with its coloring, central fibre and Weyl-invariant data."""

    def __init__(self, length: int):
        spec = _ENTRY_SPECS[length]
        super().__init__("length-%d" % length, spec["text"], family=length,
                         nice=spec.get("nice"))
        self.length = length
        self.coloring = Coloring(DIAGRAMS[spec["diagram"]], spec["black"], length)
        self.diagram = self.coloring.diagram
        self.central_fibre_map = spec["cf_map"]
        self.invariants = _INV[length]

    def central_fibre_presentation(self) -> AlgebraPresentation:
        return parse_presentation(_ENTRY_SPECS[self.length]["cf"])

    def __repr__(self):
        return "FlopCatalogEntry(length=%d, %s)" % (self.length, self.coloring)


class PipelineData:
    """Inputs for the hypersurface / matrix factorization pipeline.

    Parses, over `presentation`, the element x', the commuting central
    generators `aux` (name, text) and the module generators.  The Groebner
    basis is truncated at `presentation.gb_degree` unless a caller gives a
    degree; catalog pipelines take it from `_PIPELINE_DEGREES`.  Rewriting
    is sound at any truncation and the module is free, so the coefficients
    are unique and a successful expansion is exact.  Words are weighted by
    the loop grading (loop arrows weigh 2, the rest 1), which bounds the
    auxiliary monomials a normal form can involve.  `nice_basis` is the
    recorded change of basis, a pair (ring, {raw parameter: polynomial over
    ring}) with the auxiliary names last in ring, or None.
    """

    def __init__(self, presentation, x_text, aux_texts, generator_texts, nice_basis=None):
        self.presentation = presentation
        self.nice_basis = nice_basis
        self.x_elem = presentation.element(x_text)
        self.aux = [(name, presentation.element(text)) for name, text in aux_texts]
        self.generators = [presentation.element(text) for text in generator_texts]
        quiver = presentation.quiver
        self._weights = tuple(
            1 if a.source != a.target else 2 for a in quiver.arrows
        )

    def graded_degree(self, path) -> int:
        return sum(self._weights[i] for i in path.arrows)

    def graded_degree_element(self, elem) -> int:
        return max((self.graded_degree(p) for p in elem.terms), default=0)


# -- presentation texts ------------------------------------------------------

_L1_TEXT = """
name: length-1
params: t
vertices: 0, 1
arrows: a0: 0 -> 1, A0: 1 -> 0, a1: 1 -> 0, A1: 0 -> 1
relations: a0*A0 - A1*a1 - t*e0
relations: a1*A1 - A0*a0 + t*e1
precedence: a0, A0, a1, A1
gb_degree: 6
"""

_L2_TEXT = """
name: length-2
params: t, T0b, T0c, T0d
vertices: 0, 4
arrows: a: 0 -> 4, A: 4 -> 0, b: 4 -> 4, c: 4 -> 4, d: 4 -> 4
relations: a*A - t*e0
relations: b^2 - T0b*e4
relations: c^2 - T0c*e4
relations: d^2 - T0d*e4
relations: A*a + b + c + d - (1/2)*t*e4
precedence: a, A, d, c, b
gb_degree: 6
"""

# The Curto-Morrison coordinates for length 2 are reached from the raw
# parameters by substitution on the pipeline output (the same order the
# change of basis is applied to the raw degree-12 equation):
#   u = -T0b, w = -T0c, v = -(z + y + T0b + T0c - T0d + t^2/4)/2,
#   x = x' - t v.
_L2_NICE = (("t", "u", "v", "w"), {
    "t": "t",
    "T0b": "-u",
    "T0c": "-w",
    "T0d": "z + y - u - w + (1/4)*t^2 + 2*v",
})

_L3_TEXT = """
name: length-3
params: t, T0b, T1b, T0c, T1c, T0d
vertices: 0, 6
arrows: a: 0 -> 6, A: 6 -> 0, b: 6 -> 6, c: 6 -> 6, d: 6 -> 6
relations: d*A - t*A
relations: a*d - t*a
relations: a*A - (t^2 - T0d)*e0
relations: A*a - d^2 + T0d*e6
relations: b^3 - T1b*b - T0b*e6
relations: c^3 - T1c*c - T0c*e6
relations: b + c + d - (1/3)*t*e6
precedence: a, A, d, b, c
gb_degree: 8
"""

_L4_TEXT = """
name: length-4
params: t, T0b, T0c, T1c, T2c, T0d, T1d
vertices: 0, 7
arrows: a: 0 -> 7, A: 7 -> 0, b: 7 -> 7, c: 7 -> 7, d: 7 -> 7
relations: d*A - t*A
relations: a*d - t*a
relations: a*A - (t^3 - T1d*t - T0d)*e0
relations: A*a - d^3 + T1d*d + T0d*e7
relations: b^2 - T0b*e7
relations: c^4 - T2c*c^2 - T1c*c - T0c*e7
relations: b + c + d - (1/4)*t*e7
precedence: a, A, d, b, c
gb_degree: 10
"""

_L5_TEXT = """
name: length-5
params: t, T0d, T1d, T2d, T0, T1, T2, T3
vertices: 0, 4
arrows: a: 0 -> 4, A: 4 -> 0, b: 4 -> 4, c: 4 -> 4, d: 4 -> 4
relations: a*d - t*a
relations: d*A - t*A
relations: a*A - (t^4 - T2d*t^2 - T1d*t - T0d)*e0
relations: A*a - d^4 + T2d*d^2 + T1d*d + T0d*e4
relations: c*b*c + c^2*b + c*b^3 + T3*c*b + T2*c + T0*e4
relations: (c + b^2)^2 + b*c*b + T3*(c + b^2) + T2*b + T1*e4
relations: b - d + (1/5)*t*e4
precedence: a, A, d, b, c
gb_degree: 8
"""

_L6_TEXT = """
name: length-6
params: t, T0b, T0c, T1c, T0d, T1d, T2d, T3d
vertices: 0, 8
arrows: a: 0 -> 8, A: 8 -> 0, b: 8 -> 8, c: 8 -> 8, d: 8 -> 8
relations: d*A - t*A
relations: a*d - t*a
relations: a*A - (t^5 - T3d*t^3 - T2d*t^2 - T1d*t - T0d)*e0
relations: A*a - d^5 + T3d*d^3 + T2d*d^2 + T1d*d + T0d*e8
relations: b^2 - T0b*e8
relations: c^3 - T1c*c - T0c*e8
relations: b + c + d - (1/6)*t*e8
precedence: a, A, d, b, c
gb_degree: 12
"""

# central fibres (the partial resolution algebras of the colored diagrams)

_CF1_TEXT = """
name: central-fibre-1
params:
vertices: 0, 1
arrows: a0: 0 -> 1, A0: 1 -> 0, a1: 1 -> 0, A1: 0 -> 1
relations: a0*A0 - A1*a1
relations: a1*A1 - A0*a0
precedence: a0, A0, a1, A1
gb_degree: 6
"""

_CF2_TEXT = """
name: central-fibre-2
params:
vertices: 0, 4
arrows: a: 0 -> 4, A: 4 -> 0, b: 4 -> 4, c: 4 -> 4
relations: a*A
relations: b^2
relations: c^2
relations: (A*a + b + c)^2
precedence: a, A, c, b
gb_degree: 8
"""

_CF3_TEXT = """
name: central-fibre-3
params:
vertices: 0, 6
arrows: a: 0 -> 6, A: 6 -> 0, b: 6 -> 6, c: 6 -> 6
relations: a*A
relations: A*a - (b + c)^2
relations: (b + c)*A
relations: a*(b + c)
relations: b^3
relations: c^3
precedence: a, A, b, c
gb_degree: 10
"""

_CF4_TEXT = """
name: central-fibre-4
params:
vertices: 0, 7
arrows: a: 0 -> 7, A: 7 -> 0, b: 7 -> 7, c: 7 -> 7
relations: a*A
relations: A*a + (b + c)^3
relations: (b + c)*A
relations: a*(b + c)
relations: b^2
relations: c^4
precedence: a, A, b, c
gb_degree: 12
"""

_CF5_TEXT = """
name: central-fibre-5
params:
vertices: 0, 4
arrows: a: 0 -> 4, A: 4 -> 0, b: 4 -> 4, c: 4 -> 4
relations: a*A
relations: A*a - b^4
relations: a*b
relations: b*A
relations: c*b*c + c^2*b + c*b^3
relations: (c + b^2)^2 + b*c*b
precedence: a, A, b, c
gb_degree: 14
"""

_CF6_TEXT = """
name: central-fibre-6
params:
vertices: 0, 8
arrows: a: 0 -> 8, A: 8 -> 0, b: 8 -> 8, c: 8 -> 8
relations: a*A
relations: A*a + (b + c)^5
relations: (b + c)*A
relations: a*(b + c)
relations: b^2
relations: c^3
precedence: a, A, b, c
gb_degree: 16
"""

# -- invariant data -----------------------------------------------------------

_INV = {
    1: InvariantData("-t1", {}, []),
    2: InvariantData(
        "t0",
        {"b": ["(1/2)*t1", "-(1/2)*t1"],
         "c": ["(1/2)*t2", "-(1/2)*t2"],
         "d": ["(1/2)*t3", "-(1/2)*t3"]},
        [("T0b", 2, "b"), ("T0c", 2, "c"), ("T0d", 2, "d")],
    ),
    3: InvariantData(
        "(1/2)*(2*t0 + t1)",
        {"b": ["(1/3)*(t2 + 2*t3)", "(1/3)*(t2 - t3)", "-(1/3)*(2*t2 + t3)"],
         "c": ["(1/3)*(t4 + 2*t5)", "(1/3)*(t4 - t5)", "-(1/3)*(2*t4 + t5)"],
         "d": ["(1/2)*t1", "-(1/2)*t1"]},
        [("T1b", 2, "b"), ("T0b", 3, "b"),
         ("T1c", 2, "c"), ("T0c", 3, "c"),
         ("T0d", 2, "d")],
    ),
    4: InvariantData(
        "(1/3)*(3*t0 + 2*t1 + t2)",
        {"b": ["(1/2)*t3", "-(1/2)*t3"],
         "c": ["(1/4)*(t4 + 2*t5 + 3*t6)", "(1/4)*(t4 + 2*t5 - t6)",
               "(1/4)*(t4 - 2*t5 - t6)", "-(1/4)*(3*t4 + 2*t5 + t6)"],
         "d": ["(1/3)*(t1 + 2*t2)", "(1/3)*(t1 - t2)", "-(1/3)*(2*t1 + t2)"]},
        [("T0b", 2, "b"),
         ("T2c", 2, "c"), ("T1c", 3, "c"), ("T0c", 4, "c"),
         ("T1d", 2, "d"), ("T0d", 3, "d")],
    ),
    5: InvariantData(
        "(1/4)*(4*t0 + 3*t1 + 2*t2 + t3)",
        {"d": ["(1/4)*(t1 + 2*t2 + 3*t3)", "(1/4)*(t1 + 2*t2 - t3)",
               "(1/4)*(t1 - 2*t2 - t3)", "-(1/4)*(3*t1 + 2*t2 + t3)"],
         "g": ["(1/5)*(t5 + 2*t8 + 3*t7 + 4*t6)", "(1/5)*(t5 + 2*t8 + 3*t7 - t6)",
               "(1/5)*(t5 + 2*t8 - 2*t7 - t6)", "(1/5)*(t5 - 3*t8 - 2*t7 - t6)",
               "(1/5)*(-4*t5 - 3*t8 - 2*t7 - t6)"]},
        [("T2d", 2, "d"), ("T1d", 3, "d"), ("T0d", 4, "d"),
         ("T3", 2, "g"), ("T2", 3, "g"), ("T1", 4, "g"), ("T0", 5, "g")],
    ),
    6: InvariantData(
        "(1/5)*(5*t0 + 4*t1 + 3*t2 + 2*t3 + t4)",
        {"d": ["(1/5)*(t1 + 2*t2 + 3*t3 + 4*t4)", "(1/5)*(t1 + 2*t2 + 3*t3 - t4)",
               "(1/5)*(t1 + 2*t2 - 2*t3 - t4)", "(1/5)*(t1 - 3*t2 - 2*t3 - t4)",
               "-(1/5)*(4*t1 + 3*t2 + 2*t3 + t4)"],
         "b": ["(1/2)*t5", "-(1/2)*t5"],
         "c": ["(1/3)*(t6 + 2*t7)", "(1/3)*(t6 - t7)", "-(1/3)*(2*t6 + t7)"]},
        [("T3d", 2, "d"), ("T2d", 3, "d"), ("T1d", 4, "d"), ("T0d", 5, "d"),
         ("T0b", 2, "b"), ("T1c", 2, "c"), ("T0c", 3, "c")],
    ),
}

# Truncation degree of each pipeline: the least at which both the
# hypersurface and the matrix factorization succeed, as a successful
# expansion is exact at any degree (lengths 3-6 were measured to fail lower).
_PIPELINE_DEGREES = {
    "length-1": 3, "length-2": 3, "length-3": 8, "length-4": 12,
    "length-5": 14,  # at 12, NF(x'^2) is not in the span of the central monomial columns
    "length-6": 16, "laufer": 5, "length-3-example": 7,
}

_ENTRY_SPECS = {
    1: dict(
        diagram="A1", black=1, text=_L1_TEXT, cf=_CF1_TEXT,
        cf_map={},
        x="(1/2)*a0*a1 - (1/2)*A1*A0",
        aux=(("z", "a0*A0"), ("w", "(1/2)*a0*a1 + (1/2)*A1*A0")),
        generators=["a0", "A1"],
    ),
    2: dict(
        diagram="D4", black=4, text=_L2_TEXT, cf=_CF2_TEXT,
        cf_map={"d": "-(A*a + b + c)"},
        x="a*b*c*A", aux=(("z", "a*b*A"), ("y", "a*c*A")),
        generators=["a", "a*b", "a*c", "a*b*c"],
        nice=_L2_NICE,
    ),
    3: dict(
        diagram="E6", black=6, text=_L3_TEXT, cf=_CF3_TEXT,
        cf_map={"d": "-(b + c)"},
        x="a*c^2*b*c*A", aux=(("z", "a*c*A"), ("y", "a*c^2*A")),
        generators=["a", "a*c", "a*c^2", "a*c*b", "a*c^2*b", "a*c^2*b*c"],
    ),
    4: dict(
        diagram="E7", black=7, text=_L4_TEXT, cf=_CF4_TEXT,
        cf_map={"d": "-(b + c)"},
        x="a*c^3*b*c^2*A", aux=(("z", "a*c*A"), ("y", "a*c^3*A")),
        generators=["a", "a*c", "a*c^2", "a*c^3", "a*c^2*b", "a*c^3*b",
                    "a*c^3*b*c", "a*c^3*b*c^2"],
    ),
    5: dict(
        diagram="E8", black=4, text=_L5_TEXT, cf=_CF5_TEXT,
        cf_map={"d": "b"},
        x="a*c^3*b*c^2*A", aux=(("z", "a*c*A"), ("y", "a*c^3*A")),
        generators=["a", "a*c", "a*c^2", "a*c*b", "a*c^3", "a*c^2*b",
                    "a*c^3*b", "a*c^3*b*c", "a*c^3*b^2", "a*c^3*b*c^2"],
    ),
    6: dict(
        diagram="E8", black=8, text=_L6_TEXT, cf=_CF6_TEXT,
        cf_map={"d": "-(b + c)"},
        x="a*c^2*b*c^2*b*c*b*c^2*A", aux=(("z", "a*c*A"), ("y", "a*c^2*b*c^2*A")),
        generators=["a", "a*c", "a*c^2", "a*c^2*b", "a*c^2*b*c", "a*c^2*b*c^2",
                    "a*c^2*b*c*b", "a*c^2*b*c^2*b", "a*c^2*b*c^2*b*c",
                    "a*c^2*b*c^2*b*c*b", "a*c^2*b*c^2*b*c*b*c",
                    "a*c^2*b*c^2*b*c*b*c^2"],
    ),
}


# ---------------------------------------------------------------------------
# specialized builtins (Section 5 examples)
# ---------------------------------------------------------------------------

_LAUFER_TEXT = """
# length-2 specialization T0b = -y, T0c = t, T0d = t^2/4 + t + z where
# z = a b A and y = a c A; the loop-vertex actions z e4 = A a b + b A a - t b
# and y e4 = A a c + c A a - t c are inlined into the relations.
name: laufer
params: t
vertices: 0, 4
arrows: a: 0 -> 4, A: 4 -> 0, b: 4 -> 4, c: 4 -> 4, d: 4 -> 4
relations: a*A - t*e0
relations: b^2 + A*a*c + c*A*a - t*c
relations: c^2 - t*e4
relations: d^2 - A*a*b - b*A*a + t*b - ((1/4)*t^2 + t)*e4
relations: A*a + b + c + d - (1/2)*t*e4
precedence: a, A, d, c, b
gb_degree: 12
"""

_LAUFER_NCCR_TEXT = """
name: laufer-nccr
params:
vertices: 0, 4
arrows: a: 0 -> 4, A: 4 -> 0, b: 4 -> 4, c: 4 -> 4
relations: a*A*a - a*c^2
relations: A*a*A - c^2*A
relations: b^2 - c^3 + A*a*c + c*A*a
relations: b*c + c*b
precedence: a, A, c, b
gb_degree: 10
"""

_LAUFER_SUPERPOTENTIAL = "(1/2)*a*A*a*A - a*c^2*A - c*b^2 + (1/4)*c^4"

_L3_NCCR_TEXT = """
name: length-3-nccr
params:
vertices: 0, 6
arrows: a: 0 -> 6, A: 6 -> 0, b: 6 -> 6, c: 6 -> 6
relations: (b + c)*A
relations: a*(b + c)
relations: A*a - (b + c)^2 + b^3
relations: A*a - (b + c)^2 + c^3
precedence: a, A, b, c
gb_degree: 8
"""

_L3_SUPERPOTENTIAL = "a*b*A + a*c*A - b^4 - c^4 - (-b - c)^3"

_L3_EXAMPLE_TEXT = """
# classifying map t = 0, T1b = T1c = 0, T0b = T0c = T0d = T; the central
# generators for the hypersurface are z = a c A and y = a c^2 A
name: length-3-example
params: T
vertices: 0, 6
arrows: a: 0 -> 6, A: 6 -> 0, b: 6 -> 6, c: 6 -> 6, d: 6 -> 6
relations: b^3 - T*e6
relations: c^3 - T*e6
relations: b + c + d
relations: a*A + T*e0
relations: A*a - d^2 + T*e6
relations: a*d
relations: d*A
precedence: a, A, d, b, c
gb_degree: 8
"""

_L46_NCCR_TEMPLATE = """
name: length-%(l)d-nccr
params:
vertices: 0, 1
arrows: a: 0 -> 1, A: 1 -> 0, b: 1 -> 1, c: 1 -> 1
relations: (b + c)*A
relations: a*(b + c)
relations: b^%(i)d + A*a - (-b - c)^%(k)d
relations: c^%(j)d + A*a - (-b - c)^%(k)d
precedence: a, A, b, c
gb_degree: 8
"""

_L5_NCCR_TEXT = """
name: length-5-nccr
params:
vertices: 0, 4
arrows: a: 0 -> 4, A: 4 -> 0, b: 4 -> 4, c: 4 -> 4
relations: a*b
relations: b*A
relations: A*a + c*b*c + c^2*b + b*c^2 + c*b^3 + b^3*c + b^2*c*b + b*c*b^2 + b^5 - b^4
relations: c^2 + c*b^2 + b^2*c + b*c*b + b^4
precedence: a, A, b, c
gb_degree: 8
"""

_L5_SUPERPOTENTIAL = ("a*b*A + (1/6)*b^6 - (1/5)*b^5 + (1/3)*c^3 + b^2*c^2 "
                      "+ (1/2)*b*c*b*c + b^4*c")

# explicit moduli-chart representations for the length-2 universal flop:
# 0-generated dimension (1, 2) modules; U0 normalizes the top row of beta,
# U1 of gamma.  Chart rings are polynomial (the two chart relations are
# solved for T0c/T0d resp. T0b/T0d).
LENGTH2_CHARTS = {
    "U0": {
        "ring": ("t", "T0b", "c00", "c01", "c10", "d10"),
        "dims": {"0": 1, "4": 2},
        "matrices": {
            "a": [["1", "0"]],
            "A": [["t"], ["-d10 - T0b - c10"]],
            "b": [["0", "1"], ["T0b", "0"]],
            "c": [["c00", "c01"], ["c10", "-c00"]],
            "d": [["-(1/2)*t - c00", "-1 - c01"], ["d10", "(1/2)*t + c00"]],
        },
        "param_map": {
            "T0c": "c00^2 + c01*c10",
            "T0d": "c00^2 - d10 - c01*d10 + c00*t + (1/4)*t^2",
        },
    },
    "U1": {
        "ring": ("t", "T0c", "B00", "B01", "B10", "D10"),
        "dims": {"0": 1, "4": 2},
        "matrices": {
            "a": [["1", "0"]],
            "A": [["t"], ["-D10 - T0c - B10"]],
            "c": [["0", "1"], ["T0c", "0"]],
            "b": [["B00", "B01"], ["B10", "-B00"]],
            "d": [["-(1/2)*t - B00", "-1 - B01"], ["D10", "(1/2)*t + B00"]],
        },
        "param_map": {
            "T0b": "B00^2 + B01*B10",
            "T0d": "B00^2 - D10 - B01*D10 + B00*t + (1/4)*t^2",
        },
    },
}

# the length-2 generators as R-linear maps between the factorization
# cokernels, in the Curto-Morrison coordinates (entries free of x; the
# a* column uses x + t v rewritten by the top factorization row)
LENGTH2_RLINEAR = {
    "ring": ("u", "v", "w", "t", "z", "y"),
    "a": [["1", "0", "0", "0"]],
    "AstarA_xfree": [
        ["t", "0", "0", "0"],
        ["z", "0", "0", "0"],
        ["y", "0", "0", "0"],
        ["0", "y", "-z", "t"],
    ],
    "b": [["0", "1", "0", "0"],
          ["-u", "0", "0", "0"],
          ["2*v", "0", "0", "-1"],
          ["0", "2*v", "u", "0"]],
    "c": [["0", "0", "1", "0"],
          ["0", "0", "0", "1"],
          ["-w", "0", "0", "0"],
          ["0", "-w", "0", "0"]],
    "d": [["-(1/2)*t", "-1", "-1", "0"],
          ["u - z", "(1/2)*t", "0", "-1"],
          ["w - 2*v - y", "0", "(1/2)*t", "1"],
          ["0", "w - 2*v - y", "-u + z", "-(1/2)*t"]],
    # x e4 = b c A a + A a b c - t b c - 2 v A a + t v
    "x_combination": ("b*c", "A*a", "t", "v"),
}

# intermediate 3-vertex presentation on the way to length 5 (test material),
# with t0 = -(2 t1 + 3 t2 + 4 t3 + 5 t4 + 3 t5 + 2 t6 + 4 t7 + 6 t8) written out
_L5_INTERMEDIATE_TEXT = """
name: length-5-intermediate
params: t1, t2, t3, t4, t5, t6, t7, t8
vertices: 0, 4, 8
arrows: a: 0 -> 4, A: 4 -> 0, a4: 4 -> 8, A4: 8 -> 4, d: 4 -> 4, b: 8 -> 8, c: 8 -> 8
relations: a*A - (t0)*((t0) + t1)*((t0) + t1 + t2)*((t0) + t1 + t2 + t3)*e0
relations: A*a - d*(d - t3*e4)*(d - (t3 + t2)*e4)*(d - (t3 + t2 + t1)*e4)
relations: (t0)*a - a*d + (t1 + t2 + t3)*a
relations: d*A - ((t0) + t1 + t2 + t3)*A
relations: a4*A4 - d - t4*e4
relations: b^2 - t5*b
relations: c^3 - (t6 + 2*t7)*c^2 + t7*(t6 + t7)*c
relations: A4*a4 + b + c + t8*e8
precedence: a, A, a4, A4, d, b, c
gb_degree: 8
""".replace(
    "(t0)", "(-(2*t1 + 3*t2 + 4*t3 + 5*t4 + 3*t5 + 2*t6 + 4*t7 + 6*t8))")


# the Section 5 examples, in name order
_SPECIALIZED = [
    # Laufer flop: length-2 specialization with w=-t, u=y, v=0
    Builtin("laufer", _LAUFER_TEXT, family=2, eliminated="laufer-nccr"),
    Builtin("laufer-nccr", _LAUFER_NCCR_TEXT, _LAUFER_SUPERPOTENTIAL),
    # explicit length-3 flop with recorded hypersurface and 6x6 factorization
    Builtin("length-3-example", _L3_EXAMPLE_TEXT, family=3),
    Builtin("length-3-nccr", _L3_NCCR_TEXT, _L3_SUPERPOTENTIAL),
    Builtin("length-4-nccr", _L46_NCCR_TEMPLATE % {"l": 4, "i": 2, "j": 4, "k": 3},
            "a*b*A + a*c*A + (1/3)*b^3 + (1/5)*c^5 + (1/4)*(-b - c)^4"),
    # 3-vertex idempotent slice used to derive the length-5 presentation
    Builtin("length-5-intermediate", _L5_INTERMEDIATE_TEXT),
    Builtin("length-5-nccr", _L5_NCCR_TEXT, _L5_SUPERPOTENTIAL),
    Builtin("length-6-nccr", _L46_NCCR_TEMPLATE % {"l": 6, "i": 2, "j": 3, "k": 5},
            "a*b*A + a*c*A + (1/3)*b^3 + (1/4)*c^4 + (1/6)*(-b - c)^6"),
]


@functools.lru_cache(maxsize=None)
def _catalog() -> Dict[str, Builtin]:
    """Every catalog name, in the order `catalog list` prints them, with its
    entry.  Built on first use, so a process that reads only `builtins()`
    builds no other entry."""
    return {e.name: e for e in (
        [FlopCatalogEntry(l) for l in _ENTRY_SPECS]
        + [Builtin("central-fibre-%d" % l, spec["cf"]) for l, spec in _ENTRY_SPECS.items()]
        + [Builtin("preprojective-" + d, functools.partial(preprojective, DIAGRAMS[d]))
           for d in DIAGRAMS]
        + [Builtin("deformed-preprojective-" + d,
                   functools.partial(deformed_preprojective, DIAGRAMS[d])) for d in DIAGRAMS]
        + _SPECIALIZED
    )}


def catalog_entry(name: str) -> Builtin:
    """The catalog entry of a public name."""
    try:
        return _catalog()[name]
    except KeyError:
        raise CatalogError("unknown catalog name %r (try: %s)" % (name, ", ".join(_catalog())))


def catalog_names() -> List[str]:
    return list(_catalog())


def catalog_presentation(name: str) -> AlgebraPresentation:
    """Look up any catalog presentation by its public name."""
    return catalog_entry(name).presentation()


def builtins() -> Dict[str, Builtin]:
    """The specialized builtins (the Section 5 examples) by name."""
    return {e.name: e for e in _SPECIALIZED}


def universal_flopping_algebra(length: int) -> FlopCatalogEntry:
    """Catalog entry for the universal flopping algebra of the given length."""
    if length not in _ENTRY_SPECS:
        raise CatalogError("length must be 1..6, got %r" % (length,))
    return _catalog()["length-%d" % length]


# ---------------------------------------------------------------------------
# invariant verification
# ---------------------------------------------------------------------------

class CheckReport:
    def __init__(self):
        self.checks: List[Tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> List[Tuple[str, str]]:
        return [(n, d) for n, ok, d in self.checks if not ok]

    def __repr__(self):
        good = sum(1 for _, ok, _ in self.checks if ok)
        return "CheckReport(%d/%d ok)" % (good, len(self.checks))


def verify_invariants(entry: FlopCatalogEntry) -> CheckReport:
    """Check the Weyl-invariance and symmetric-function structure of H_l.

    Verifies that every declared generator of H_l is fixed by every simple
    reflection generating W_C, that the tau variables are permuted by those
    reflections, that s_i^2 = id on H_Gamma, and that specializing the
    parameters to zero turns the universal presentation into the recorded
    central fibre (after the recorded loop elimination).
    """
    report = CheckReport()
    d = entry.diagram
    inv = entry.invariants
    gens = inv.generator_polys(d)
    taus = inv.tau_polys(d)
    wc = entry.coloring.reflection_vertices()

    for name in sorted(gens):
        poly = gens[name]
        for i in wc:
            fixed = apply_simple_reflection(d, i, poly) == poly
            report.add("l%d: s%d fixes %s" % (entry.length, i, name), fixed,
                       "" if fixed else "s%d moves %s" % (i, name))

    for group in sorted(taus):
        values = taus[group]
        for i in wc:
            images = [apply_simple_reflection(d, i, v) for v in values]
            permuted = sorted(map(str, images)) == sorted(map(str, values))
            report.add("l%d: s%d permutes tau^%s" % (entry.length, i, group), permuted)

    ring = d.param_ring()
    involutive = True
    for i in range(1, d.n + 1):
        for j in range(1, d.n + 1):
            tj = ring.var("t%d" % j)
            if apply_simple_reflection(d, i, apply_simple_reflection(d, i, tj)) != tj:
                involutive = False
    report.add("l%d: s_i^2 = id on H_%s" % (entry.length, d.name), involutive)

    report.add("l%d: central fibre consistent" % entry.length,
               central_fibre_consistent(entry))
    return report


def central_fibre_consistent(entry: FlopCatalogEntry) -> bool:
    """Parameters to zero plus the recorded loop elimination must reproduce
    the stored central-fibre relations (up to nonzero scalar, zeros dropped)."""
    pres = entry.presentation()
    cf = entry.central_fibre_presentation()
    zero_map = {n: cf.params.zero() for n in pres.params.names}
    loops = {name: parse_element(text, cf.quiver, cf.params)
             for name, text in entry.central_fibre_map.items()}
    images = (algebra_map(r, cf.quiver, cf.params, loops,
                          lambda c: c.substitute(zero_map, cf.params))
              for r in pres.relations)
    images = [img for img in images if not img.is_zero()]
    targets = list(cf.relations)

    for tgt in targets:
        if not any(is_multiple(img, tgt) for img in images):
            return False
    for img in images:
        if not any(is_multiple(img, tgt) for tgt in targets):
            return False
    return True
