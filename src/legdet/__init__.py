"""Exact computation and range verification of Legendre-symbol determinant
identities: squares matrices, their eigenvalue character sums, Carlitz and
Chapman closed forms, and the associated quadratic-field invariants."""

from .ntcore import (
    PrimeCtx,
    TwoSquare,
    is_perfect_square,
    is_prime,
    jacobsthal_sum,
    legendre,
    perm_sign_cycles,
    perm_sign_formula,
    perm_sign_rotation,
)
from .matrices import (
    AffineMatrix,
    SignMatrix,
    carlitz_matrix,
    chapman_matrix,
    evil_matrix,
    squares_matrix,
    squares_star_matrix,
)
from .exactla import IntPoly, chapman_dets, char_poly, det_affine, det_exact, det_mod
from .charsums import (
    CyclotomicElt,
    EigenReport,
    carlitz_char_poly,
    det_squares,
    det_squares_star,
    eigen_identity,
    eigen_verify,
    eigenvalue_exact,
    product_identity,
    row_identity_check,
)
from .quadfield import (
    ClassData,
    QuadUnit,
    class_data,
    class_number,
    fundamental_unit,
)
from .harness import CheckResult, RunConfig, run, run_check

__all__ = [
    "AffineMatrix",
    "CheckResult",
    "ClassData",
    "CyclotomicElt",
    "EigenReport",
    "IntPoly",
    "PrimeCtx",
    "QuadUnit",
    "RunConfig",
    "SignMatrix",
    "TwoSquare",
    "carlitz_char_poly",
    "carlitz_matrix",
    "chapman_dets",
    "chapman_matrix",
    "char_poly",
    "class_data",
    "class_number",
    "det_affine",
    "det_exact",
    "det_mod",
    "det_squares",
    "det_squares_star",
    "eigen_identity",
    "eigen_verify",
    "eigenvalue_exact",
    "evil_matrix",
    "fundamental_unit",
    "is_perfect_square",
    "is_prime",
    "jacobsthal_sum",
    "legendre",
    "perm_sign_cycles",
    "perm_sign_formula",
    "perm_sign_rotation",
    "product_identity",
    "row_identity_check",
    "run",
    "run_check",
    "squares_matrix",
    "squares_star_matrix",
]

__version__ = "0.1.0"
