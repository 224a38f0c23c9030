"""Exact invariants of pure Hodge structures and conditional screening.

The toolkit takes a declared reductive matrix group, a Hodge
cocharacter, and a Hodge number table, computes the flag variety
dimension, the horizontal codimension, and the transcendence degree of
a declared filtration point, and evaluates the conjecture-conditional
inequalities that screen out structures which cannot come from
geometry.  All arithmetic is exact: rationals, number field elements
with certified complex embeddings, and multivariate rational functions.
"""

from .errors import (
    BracketClosureError,
    DenominatorVanishes,
    HodgescreenError,
    IdentityViolation,
    IncompleteGrading,
    MathDomainError,
    NormalizationError,
    NotAHodgeFiltration,
    PrecisionExhausted,
    SpecValidationError,
)
from .fields import NumberField, QQ, gaussian_field
from .flags import (
    FlagPoint,
    TrdegResult,
    is_maximal_transcendence,
    jacobian_matrix,
    normalize_chart,
    trdeg,
)
from .grading import (
    CocharGrading,
    HodgeCocharacter,
    InvariantReport,
    flag_dimension,
    grade,
    hcodim,
    is_shimura_type,
    report,
)
from .hodge import (
    HodgeNumbers,
    PolarizationForm,
    PolarizationResult,
    RealizedHodgeStructure,
    dual,
    filtration_dims,
    polarization_check,
    realize_and_validate,
    sym,
    tate_twist,
    tensor,
    wedge,
)
from .lie import (
    CLASSICAL_KINDS,
    MatLieAlgebra,
    adjoint_of_diagonal,
    bracket_matrices,
    direct_sum,
    make_classical,
)
from .linalg import ExactMatrix, intersection_basis, kernel_basis, rank, rref
from .ratfunc import FunctionField, RatFunc
from .schema import SPEC_SCHEMA, SpecDocument, load_document, parse_document
from .verdicts import (
    ChainIdentity,
    ConjectureSet,
    Verdict,
    chain_identity,
    evaluate,
    exit_code_for,
    field_descent_bound,
    maximal_transcendence_verdict,
    screen,
    shimura_necessity,
    trdeg_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BracketClosureError",
    "CLASSICAL_KINDS",
    "ChainIdentity",
    "CocharGrading",
    "ConjectureSet",
    "DenominatorVanishes",
    "ExactMatrix",
    "FlagPoint",
    "FunctionField",
    "HodgeCocharacter",
    "HodgeNumbers",
    "HodgescreenError",
    "IdentityViolation",
    "IncompleteGrading",
    "InvariantReport",
    "MatLieAlgebra",
    "MathDomainError",
    "NormalizationError",
    "NotAHodgeFiltration",
    "NumberField",
    "PolarizationForm",
    "PolarizationResult",
    "PrecisionExhausted",
    "QQ",
    "RatFunc",
    "RealizedHodgeStructure",
    "SPEC_SCHEMA",
    "SpecDocument",
    "SpecValidationError",
    "TrdegResult",
    "Verdict",
    "adjoint_of_diagonal",
    "bracket_matrices",
    "chain_identity",
    "direct_sum",
    "dual",
    "evaluate",
    "exit_code_for",
    "field_descent_bound",
    "filtration_dims",
    "flag_dimension",
    "gaussian_field",
    "grade",
    "hcodim",
    "intersection_basis",
    "is_maximal_transcendence",
    "is_shimura_type",
    "jacobian_matrix",
    "kernel_basis",
    "load_document",
    "make_classical",
    "maximal_transcendence_verdict",
    "normalize_chart",
    "parse_document",
    "polarization_check",
    "rank",
    "realize_and_validate",
    "report",
    "rref",
    "screen",
    "shimura_necessity",
    "sym",
    "tate_twist",
    "tensor",
    "trdeg",
    "trdeg_lower_bound",
    "wedge",
]
