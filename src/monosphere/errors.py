"""Exception hierarchy.

Two families matter to callers: validation failures (bad or inconsistent
input data) and convergence failures (an iteration or quadrature ran out
of budget).  The command line maps the first family to exit code 2 and
the second to exit code 3.
"""


class MonosphereError(Exception):
    """Base class for everything raised by this package."""


class ValidationError(MonosphereError):
    """Input data violates a documented precondition."""


class ConvergenceError(MonosphereError):
    """An iterative or adaptive procedure failed to converge."""


# -- validation ------------------------------------------------------------

class SchemaError(ValidationError):
    """Malformed JSON payload or CSV row."""


class NotHermitian(ValidationError):
    """The curve matrix is not Hermitian, or for normalize no unit phase
    makes it so."""


class NotPositiveDefinite(ValidationError):
    """The Hermitian curve matrix (for normalize, after its phase and
    sign) has no factor Psi = conj(Q)^T Q: its smallest eigenvalue is not
    above tol times the largest."""


class NotFull(ValidationError):
    """Coefficient vectors do not span, so the map is not an embedding."""


class NotStable(ValidationError):
    """Tuple outside the stable locus; the norm has no minimum on the orbit."""


class Underdetermined(ValidationError):
    """Too few independent samples to pin down the unknowns."""


class IdenticallyZero(ValidationError):
    """A slice polynomial vanished identically."""


class LineNotThroughQw(ValidationError):
    """Projection line does not contain the required point q(w)."""


class NotOnCurve(ValidationError):
    """Starting point does not satisfy the curve equation."""


class NotCentred(ValidationError):
    """Spectral matrix lacks the factor-swap symmetry of a centred curve."""


class ConstraintViolated(ValidationError):
    """Charge-2 moduli constraints fail."""


class RealPointFound(ValidationError):
    """A curve that must avoid the antidiagonal meets it."""


class DomainViolation(ValidationError):
    """Field evaluated outside its validity region."""


class DegenerateMap(ValidationError):
    """Rational map is constant, of degree 0, below its nominal degree, or
    overflows when normalized."""


# -- convergence -----------------------------------------------------------

class QuadratureNotConverged(ConvergenceError):
    """Carries the smallest bound reached (None if not finite) and the last n."""

    def __init__(self, message, best=None, nodes=None):
        super().__init__(message)
        self.best = best
        self.nodes = nodes


class MaxIterExceeded(ConvergenceError):
    """Iteration budget exhausted.  Carries the best iterate found."""

    def __init__(self, message, best=None, trace=None):
        super().__init__(message)
        self.best = best
        self.trace = trace


class BranchPoint(ConvergenceError):
    """A lattice step hit a double root and cannot continue."""


class NoEstimate(ConvergenceError):
    """No closure observed, so no mass estimate is available."""


class NonFiniteResult(ConvergenceError):
    """A computed value overflowed the floating-point range."""
