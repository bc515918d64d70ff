"""Exception types shared across the package, and the integer check at its input boundaries."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


def require_int(value, what: str) -> int:
    """value itself when it is an int; a float, string or boolean is rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return value


class ConstructionError(RuntimeError):
    """A randomized or budgeted construction failed to produce its object."""


class InvalidBasisError(ParameterError):
    """A tuple of extension-field elements is linearly dependent over the base."""


class MissingEigenvectorError(ValueError):
    """A matrix in a candidate set does not have the requested eigenvector.

    ``index`` is the position of the offending matrix.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"matrix {index} does not have the basis as an eigenvector")
