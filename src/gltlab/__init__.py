"""gltlab: a numerical laboratory for the spectral analysis of multilevel
block Toeplitz, diagonal-sampling, and derived structured matrix-sequences.

The package builds matrix-sequences from symbols, measures their asymptotic
eigenvalue/singular-value behavior against the symbol's surface integrals,
and certifies approximating-class and zero-distribution structure, including
a seeded Monte Carlo verifier for the stochastic variant.
"""

from .acs import (
    RandomSequenceModel,
    acs_check,
    sacs_check,
    zero_distribution_test,
)
from .gltcalc import (
    Adjoint,
    Diag,
    FunApply,
    GLTExpression,
    LinComb,
    Product,
    PseudoInverse,
    Scalar,
    Toeplitz,
    Zero,
    glt1_verify,
    glt5_split_check,
    materialize,
    symbol_of,
    truncate_toeplitz,
)
from .matgen import BlockMatrix, diag_sampling, toeplitz
from .multiindex import nu
from .reports import Report
from .spectra import (
    TestFunction,
    cosine_bump,
    default_basket,
    distribution_check,
    empirical_functional,
    poly_on_window,
    spectrum,
)
from .symbols import (
    CoefficientFunction,
    Symbol,
    TrigPolynomial,
    evaluate,
    fourier_coefficients,
    spectral_surfaces,
)
from .dsl import format_expression, parse

__version__ = "0.1.0"

__all__ = [
    "Adjoint",
    "BlockMatrix",
    "CoefficientFunction",
    "Diag",
    "FunApply",
    "GLTExpression",
    "LinComb",
    "Product",
    "PseudoInverse",
    "RandomSequenceModel",
    "Report",
    "Scalar",
    "Symbol",
    "TestFunction",
    "Toeplitz",
    "TrigPolynomial",
    "Zero",
    "acs_check",
    "cosine_bump",
    "default_basket",
    "diag_sampling",
    "distribution_check",
    "empirical_functional",
    "evaluate",
    "format_expression",
    "fourier_coefficients",
    "glt1_verify",
    "glt5_split_check",
    "materialize",
    "nu",
    "parse",
    "poly_on_window",
    "sacs_check",
    "spectral_surfaces",
    "spectrum",
    "symbol_of",
    "toeplitz",
    "truncate_toeplitz",
    "zero_distribution_test",
]
