"""Exception types shared across the package, and the batch check that raises them."""


class CvfadeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CvfadeError, ValueError):
    """An argument lies outside the mathematically allowed domain."""


class NonPhysicalState(CvfadeError):
    """A covariance matrix violates the uncertainty relation gamma + i*Omega >= 0."""


class NumericalFailure(CvfadeError):
    """A numerical routine failed to converge or left its validated domain."""


class DegenerateInput(CvfadeError):
    """Conditioning produced a non-positive variance."""


class ConfigError(CvfadeError):
    """A configuration document or coefficient table is missing or invalid."""


class InternalError(CvfadeError):
    """An internal consistency check failed (indicates a bug, not bad input)."""


def check_batch(bad, error):
    """Raise `error(k)` (or the exception `error`) if any point of a batch is `bad`; k is the first."""
    if bad.any():
        raise error(int(bad.argmax())) if callable(error) else error
