"""Exception types shared across the package."""

__all__ = [
    "RepfnError",
    "SetSpecError",
    "EmptySetError",
    "InsufficientComplementError",
    "BudgetExceededError",
    "SelfCheckError",
]


class RepfnError(Exception):
    """Base class for all errors raised by this package."""


class SetSpecError(RepfnError, ValueError):
    """A set-spec string is malformed or describes an invalid set."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class EmptySetError(RepfnError, ValueError):
    """An operation that needs a member was given an empty set."""


class InsufficientComplementError(RepfnError, RuntimeError):
    """The set misses fewer values than the decrease case split needs.

    The missing values are read from the descriptor, so this is a fact
    about the set, not about how far it was searched.
    """


class BudgetExceededError(RepfnError, RuntimeError):
    """A computation would exceed the configured resource budget."""

    def __init__(self, message: str, budget: int):
        super().__init__(f"{message} (budget {budget} bytes)")
        self.budget = budget


class SelfCheckError(RepfnError, RuntimeError):
    """An internal consistency check failed.

    Raised when a result that is supposed to be impossible shows up, for
    example a guaranteed flat step that cannot be found.  Never silenced.
    """
