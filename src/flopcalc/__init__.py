"""flopcalc: noncommutative computer algebra for threefold flop calculations.

Path algebras of quivers with relations over exact rational-function
coefficient rings, truncated noncommutative Groebner bases, the built-in
catalog of the six universal flopping algebras, hypersurface and matrix
factorization extraction, and contraction algebra / Gopakumar-Vafa
invariant computations.
"""

from .coeff import (
    CoeffError,
    DivisionByZeroError,
    MultiPoly,
    ParamRing,
    RatFunc,
    elementary_symmetric,
    format_poly,
    parse_poly,
)
from .pathalg import (
    AlgebraPresentation,
    Arrow,
    Element,
    MonomialOrder,
    ParseError,
    Path,
    PathAlgebraError,
    Quiver,
    compose,
    format_presentation,
    idempotent_path,
    parse_element,
    parse_presentation,
)
from .ncgb import (
    Budget,
    BudgetExceededError,
    GroebnerBasis,
    INFINITE,
    InfiniteDimensionError,
    TruncationError,
    complete_groebner,
    dimension,
    enumerate_normal_words,
    normal_form,
    reduce_element,
    reduce_poly,
    truncated_groebner,
)
from .catalog import (
    DIAGRAMS,
    Builtin,
    CatalogError,
    CheckReport,
    Coloring,
    DynkinDiagram,
    FlopCatalogEntry,
    LENGTH2_CHARTS,
    apply_simple_reflection,
    builtins,
    catalog_entry,
    catalog_names,
    catalog_presentation,
    deformed_preprojective,
    preprojective,
    universal_flopping_algebra,
    verify_invariants,
)
from .flops import (
    Hypersurface,
    MatrixFactorization,
    PipelineError,
    Representation,
    TruncationInsufficientError,
    cyclic_derivative,
    hypersurface,
    matrix_factorization,
    specialize,
    verify_representation,
    verify_superpotential,
)
from .contraction import (
    ContractionError,
    ContractionReport,
    abelianization,
    completed_dimension,
    contraction_dims,
    contraction_presentation,
    contraction_report,
    gv_invariants,
)

__version__ = "0.1.0"
