"""Exception types shared across the library."""


class SignpolyError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(SignpolyError):
    """Operands live in Euclidean spaces of different dimension."""


class EnumerationTooLargeError(SignpolyError):
    """A vertex enumeration would exceed the configured cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(
            f"enumeration would produce {count} vertices, above the cap of {cap}"
        )
        self.count = count
        self.cap = cap


class SolverFailureError(SignpolyError):
    """The LP kernel gave up (iteration cap or numerical breakdown).

    Distinct from a clean "not a member" verdict: callers must not treat
    this as non-membership.
    """


class StateValidationError(SignpolyError):
    """A matrix failed one of the density-matrix invariants.

    Attributes
    ----------
    kind:
        Which invariant failed: ``"not-square"``, ``"not-finite"``,
        ``"not-hermitian"``, ``"bad-trace"`` or ``"not-psd"``.
    magnitude:
        Size of the violation (max deviation, or the offending eigenvalue).
    """

    def __init__(self, kind: str, magnitude: float, message: str):
        super().__init__(message)
        self.kind = kind
        self.magnitude = magnitude


class DecompositionError(SignpolyError):
    """A convex decomposition input violates its contract."""


class FileFormatError(SignpolyError):
    """A state or decomposition document could not be parsed."""
