"""Exception hierarchy shared by all gltlab modules.

``exit_code`` is each error's CLI exit code: 3 for numerical failures
(quadrature, solver, evaluation, singular evaluation), 2 for every usage or
input problem, ``DomainError`` included.  A failed verdict exits 1.
"""


class GltLabError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class InvalidSizeError(GltLabError):
    """A size multi-index has a non-positive entry."""


class InvalidParameterError(GltLabError):
    """A numeric parameter violates its contract (p < 1, budget >= 0.5, ...)."""


class DomainError(GltLabError):
    """An evaluation point lies outside [0,1]^d x [-pi,pi]^d."""


class SingularEvaluationError(GltLabError):
    """Pointwise inversion hit a (numerically) singular matrix."""

    exit_code = 3


class EvaluationError(GltLabError):
    """Symbol or coefficient evaluation produced a non-finite value.

    Carries the offending node coordinates when known.
    """

    exit_code = 3

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class ConfigurationError(GltLabError):
    """An invalid configuration (aliasing guard, config file fields, ...).

    ``fields`` lists every violated entry when the error comes from config
    validation.
    """

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)


class SizeCapError(GltLabError):
    """Requested matrix exceeds the fixed dense-size cap (8192 rows), or a
    numeric Fourier grid exceeds 2^24 nodes."""


class ModeError(GltLabError):
    """Eigenvalue mode requested for a non-Hermitian sequence without waiver."""


class QuadratureError(GltLabError):
    """Symbol-side quadrature did not converge within the refinement budget."""

    exit_code = 3


class SolverError(GltLabError):
    """Dense eigen/singular solver failed; message carries a matrix fingerprint."""

    exit_code = 3


class CalculusError(GltLabError):
    """An expression node violates the symbol-calculus preconditions."""


class DslSyntaxError(GltLabError):
    """Lexical, syntax, or scope error in DSL source text, with position."""

    def __init__(self, message, line=1, col=1):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
