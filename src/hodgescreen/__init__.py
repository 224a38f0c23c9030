"""Exact invariants of pure Hodge structures and conditional screening.

The toolkit takes a declared reductive matrix group, a Hodge
cocharacter, and a Hodge number table, computes the flag variety
dimension, the horizontal codimension, and the transcendence degree of
a declared filtration point, and evaluates the conjecture-conditional
inequalities that screen out structures which cannot come from
geometry.  All arithmetic is exact: rationals, number field elements
with certified complex embeddings, and multivariate rational functions.

Importing the package loads no submodule.  Each public name is imported
from its home module on first access (PEP 562), so a caller pays only
for the layers it uses; `from hodgescreen import X` and `import *` work
as with eager imports.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BracketClosureError", "DenominatorVanishes", "HodgescreenError",
        "IdentityViolation", "MathDomainError", "NormalizationError",
        "NotAHodgeFiltration", "PrecisionExhausted", "SpecValidationError",
    ),
    "fields": ("NumberField", "QQ", "gaussian_field"),
    "flags": (
        "FlagPoint", "TrdegResult", "jacobian_matrix", "normalize_chart",
        "trdeg",
    ),
    "grading": ("HodgeCocharacter", "InvariantReport", "grade", "report"),
    "hodge": (
        "HodgeNumbers", "PolarizationForm", "PolarizationResult",
        "RealizedHodgeStructure", "dual", "filtration_dims",
        "polarization_check", "sym", "tate_twist", "tensor", "wedge",
    ),
    "lie": (
        "CLASSICAL_KINDS", "MatLieAlgebra", "adjoint_of_diagonal",
        "bracket_matrices", "direct_sum", "make_classical",
    ),
    "linalg": ("ExactMatrix", "intersection_basis", "kernel_basis", "rank", "rref"),
    "ratfunc": ("FunctionField", "RatFunc"),
    "schema": ("SPEC_SCHEMA", "SpecDocument", "load_document", "parse_document"),
    "verdicts": (
        "ChainIdentity", "ConjectureSet", "Verdict", "chain_identity",
        "evaluate", "exit_code_for", "field_descent_bound",
        "maximal_transcendence_verdict", "screen", "shimura_necessity",
        "trdeg_lower_bound",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
