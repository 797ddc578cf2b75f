"""Shared exception types and process exit codes."""


class CapacityError(Exception):
    """A computation is past a supported limit: an integer width, a budget or the float range."""

    status = "capacity-error"  # the row status of a cell that raises it


class EigensolverError(Exception):
    """The eigensolver hit its product cap; carries the last value, residual and count."""

    status = "eigensolver-error"  # the row status of a cell that raises it

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
