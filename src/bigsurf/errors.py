"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input is well formed but outside the supported mathematical domain."""


class NotNegativeDefiniteError(DomainError):
    """A lattice expected to be negative definite is not."""


class InvariantError(RuntimeError):
    """An internal cross-check failed: two routes to the same exact value
    disagree, which indicates a bug rather than bad input."""
