"""Exact computer algebra for the W(2,2) Lie algebra.

The package provides the defining bracket with its two central extensions,
PBW normal ordering in the enveloping algebra, Verma modules with their
contravariant forms, Gram determinants and singular-vector search, the
irreducibility criterion, the non-semisimple I(0) analysis, and the Witt /
intermediate-series realizations.  All arithmetic is exact: rationals with
unbounded integers, or polynomials in the module parameters.
"""

from .algebra import (
    C,
    C1,
    Generator,
    I,
    IndexLimitError,
    JacobiReport,
    L,
    LieElement,
    bracket,
    bracket_gen,
    generator_window,
    jacobi_report,
)
from .identities import (
    IdentityCase,
    IdentityResult,
    load_corpus,
    parse_expression,
    run_corpus,
    verify_identity,
)
from .pbw import (
    UEElement,
    WordLengthError,
    commutator,
    multiply,
    normal_order,
    ue,
)
from .realizations import (
    IntermediateSeriesParams,
    WindowReport,
    intermediate_series_action,
    intermediate_series_report,
    semidirect_check,
    witt_action,
    witt_module_report,
)
from .scalars import PARAM_POLYS, QQ, Poly, parse_rational
from .verma import (
    BasisMonomial,
    GramMatrix,
    HWParams,
    I0Report,
    LevelBoundError,
    SingularVector,
    VermaVector,
    act,
    first_degenerate_level,
    gram_matrix,
    i0_matrix,
    is_reducible,
    level_basis,
    partitions,
    shapovalov_det,
    singular_vectors,
)

__version__ = "0.1.0"
