"""Exact invariant geometry on nilpotent Lie algebras.

Rational-arithmetic Chevalley-Eilenberg cohomology (plain and twisted by a
closed 1-form), symplectic and locally conformal symplectic detection with
verified witnesses, Hermitian classification for compatible metric pairs,
and a symbolically checked coordinate model for the filiform example.

Sign convention, used everywhere: dx_k(X_i, X_j) = -x_k([X_i, X_j]), so in
tuple notation "(0,0,0,12)" means dx_4 = x1^x2, i.e. [X_1, X_2] = -X_4.
"""

from types import ModuleType as _ModuleType

from .catalog import CatalogEntry, ExpectedFact, get_example, heisenberg_line, names
from .cohomology import (
    CohomologyClass,
    CohomologySpace,
    LefschetzResult,
    MasseyResult,
    betti_profile,
    cohomology_space,
    cup,
    lefschetz_map,
    triple_massey,
    twisted_d,
)
from .coordinate_model import RealizationReport, verify_realization
from .errors import (
    AmbientMismatch,
    CupObstruction,
    DegenerateMetric,
    DimensionMismatch,
    IndexOutOfRange,
    InternalInvariantBreach,
    InvalidParameter,
    JacobiViolation,
    LeeFormNotClosed,
    NilformsError,
    NotAlmostComplex,
    NotClosed,
    NotHermitian,
    NotNilpotent,
    OddDimension,
    OmegaNotClosed,
    PreconditionFailed,
    SalamonSyntaxError,
    SchemaViolation,
    UnknownName,
    WrongDimension,
)
from .exterior_core import (
    AlgebraInvariants,
    KForm,
    LieAlgebra,
    build_algebra,
    ce_d,
    format_form,
    lower_central_series,
    wedge,
)
from .hermitian import (
    AlmostComplexStructure,
    HermitianClassification,
    InnerProduct,
    NijenhuisTensor,
    classify_hermitian,
    lee_form,
    nijenhuis,
)
from .notation import (
    algebra_to_json,
    form_to_json,
    format_salamon,
    json_to_algebra,
    json_to_form,
    parse_covector_sum,
    parse_salamon,
)
from .polynomials import Poly, nonzero_point
from .scalars import as_scalar, format_scalar
from .structures import (
    Classification4D,
    LcsSearchResult,
    LcsVerdict,
    SearchConfig,
    SymplecticVerdict,
    check_lcs,
    check_symplectic,
    classify_4d,
    find_lcs,
    find_symplectic,
    nondegenerate_in_span,
    pfaffian_volume,
    theta_candidates,
    twisted_exactness_witness,
)
from .verification import CheckResult, all_machine_pass, verify_all

__version__ = "0.1.0"

# the re-exported names, without the submodules that importing them binds
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
