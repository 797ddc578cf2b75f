"""Shared exception types and process exit codes."""


class CapacityError(Exception):
    """A requested computation would overflow the supported integer width."""


class VerificationError(Exception):
    """An inequality that must hold exactly was violated."""


class EigensolverError(Exception):
    """The eigensolver hit its product cap; carries the last value, residual and count."""

    def __init__(self, message: str, last_value: float, last_residual: float, iterations: int):
        super().__init__(message)
        self.last_value = last_value
        self.last_residual = last_residual
        self.iterations = iterations


EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_VERIFICATION = 3
EXIT_CAPACITY = 4
EXIT_EIGENSOLVER = 5
