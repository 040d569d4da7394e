"""Exception types shared across the package."""


class DupLossError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(DupLossError, ValueError):
    """A constructor argument outside its documented range.

    Also a ``ValueError``, so callers that catch that keep working.
    """


class DuplicateValueError(DupLossError):
    """A one-line sequence repeats a value, so it is not a permutation."""


class OutOfRangeError(DupLossError):
    """A one-line sequence contains a value outside 1..n."""


class PositionOutOfRangeError(DupLossError):
    """A position index falls outside 1..n."""


class WindowOutOfRangeError(DupLossError):
    """A duplication window does not fit inside the permutation."""


class WidthExceededError(DupLossError):
    """A replayed step is wider than the scenario's width limit."""


class NotSortedWindowError(DupLossError):
    """A window that must hold an increasing sequence does not."""


class InvalidWidthError(DupLossError):
    """A width limit that is neither an integer of at least the model's
    minimum (2, or 1 where width 1 is allowed) nor infinity."""


class InfiniteWidthError(DupLossError):
    """An operation that needs a finite width limit was given infinity."""


class BudgetExceededError(DupLossError):
    """An exhaustive enumeration would exceed the configured size cap."""


class NoWitnessError(DupLossError):
    """No removal position satisfies the requested property.

    Raised only if a guaranteed witness search comes up empty, which
    would indicate a bug rather than a legitimate input.
    """


class VerificationError(DupLossError):
    """A generated scenario failed its check before being reported: it
    replays to a different permutation, or takes fewer steps than the
    certified lower bound.

    Raised only if a generator is wrong, never for a legitimate input.
    """
