"""Exact symbolic toolkit for algebraic constant-mean-curvature checks.

The package decides, over exact rationals, whether a polynomial divides
its own mean-curvature defect, and replays the degree-by-degree identity
chain showing that no cubic in normal form can ever do so.
"""

from .calculus import (
    cmc_defect,
    delta1,
    grad_norm_sq,
    gradient,
    laplacian,
    p_laplacian,
    partial,
    symbolic_defect,
)
from .cmc import CmcReport, check_cmc, make_surface, refutation_sweep, solve_hsq
from .cubic import (
    GenericCubicSpec,
    SymMatrix,
    cube_root_cubic_form,
    generic_cubic,
    quad_form_from_matrix,
    quad_form_to_matrix,
)
from .divide import DivisionResult, divide, divides
from .parse import ParseError, parse_polynomial, to_text
from .replay import ReplayReport, ReplayStep, expected_gradsq_parts, replay
from .ring import (
    ContextMismatchError,
    ExponentLimitError,
    Polynomial,
    RingContext,
    RingError,
    UnknownVariableError,
)

__version__ = "0.1.0"

__all__ = [
    "CmcReport",
    "ContextMismatchError",
    "DivisionResult",
    "ExponentLimitError",
    "GenericCubicSpec",
    "ParseError",
    "Polynomial",
    "ReplayReport",
    "ReplayStep",
    "RingContext",
    "RingError",
    "SymMatrix",
    "UnknownVariableError",
    "check_cmc",
    "cmc_defect",
    "cube_root_cubic_form",
    "delta1",
    "divide",
    "divides",
    "expected_gradsq_parts",
    "generic_cubic",
    "grad_norm_sq",
    "gradient",
    "laplacian",
    "make_surface",
    "p_laplacian",
    "parse_polynomial",
    "partial",
    "quad_form_from_matrix",
    "quad_form_to_matrix",
    "refutation_sweep",
    "replay",
    "solve_hsq",
    "symbolic_defect",
    "to_text",
]
