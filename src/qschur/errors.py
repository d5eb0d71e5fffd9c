"""Exception types shared across the package."""


class QschurError(Exception):
    """Base class for numerical/contract failures raised by this package."""


class ShapeError(QschurError, ValueError):
    """Operands have incompatible shapes (or series sides)."""


class NonFiniteInputError(QschurError, ValueError):
    """Input holds a NaN or infinite number."""


class SingularMatrixError(QschurError):
    """A linear solve hit a numerically rank-deficient matrix."""


class NotHermitianError(QschurError, ValueError):
    """Input matrix is not Hermitian within tolerance."""


class ZeroVectorError(QschurError, ValueError):
    """A nonzero vector was required."""


class OnSpectrumError(QschurError):
    """Resolvent requested at a point of the S-spectrum."""


class ContourOnSpectrumError(OnSpectrumError):
    """A contour passes through (or hugs) a spectral sphere, or the spectrum
    it encloses is too close to the rest for a certified projector."""


class RankDeficiencyError(QschurError):
    """Complementary projector ranks do not add up to the full dimension."""


class NotInvertibleAtZeroError(QschurError, ValueError):
    """Series reciprocal/division needs an invertible constant coefficient."""


class BadSignatureError(QschurError, ValueError):
    """Matrix fails to be Hermitian/invertible (or a Hermitian involution)."""


class InvalidModulusError(QschurError, ValueError):
    """Blaschke data must lie strictly inside the punctured unit ball."""


class InvalidSpecError(QschurError, ValueError):
    """Requested zero/contour data violates its invariants."""


class DegenerateChoiceError(QschurError):
    """Running Blaschke product already vanishes at the next prescribed zero."""


class SteinSingularError(QschurError):
    """Stein equation unsolvable: eigenvalue moduli resonate (product one)."""


class NotObservableError(QschurError, ValueError):
    """(C, A) fails the observability rank condition."""


class CompletionFailureError(QschurError):
    """A completion step failed: indefinite Gram-Schmidt met a neutral vector,
    or no real shift alpha = +-1 makes alpha I - A well conditioned."""


class OnPoleSphereError(QschurError):
    """Evaluation requested on (or too close to) a pole sphere."""


class SpectrumOnUnitSphereError(QschurError):
    """Factorization requires no eigenvalue sphere of modulus one."""


class NotDiagonalizableError(QschurError):
    """Matrix is numerically defective; no reliable eigenvector basis."""
