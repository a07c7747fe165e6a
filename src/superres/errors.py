"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class DegenerateGeometryError(DomainError):
    """Zero separation: the antisymmetric spatial mode is undefined there."""


class OutOfReachError(DomainError):
    """Requested concurrence exceeds the maximum reachable at this separation.

    The reachable maximum depends on the separation through the source
    overlap; it is exposed as the ``c_max`` attribute.
    """

    def __init__(self, c: float, c_max: float):
        super().__init__(
            f"concurrence {c:.9g} is out of reach: the maximum reachable "
            f"value at this separation is C_max = {c_max:.9g}"
        )
        self.c_max = c_max


class ConfigurationError(DomainError):
    """A numerical configuration cannot hold the requested computation
    (a malformed grid)."""
