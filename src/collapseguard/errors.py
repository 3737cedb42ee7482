"""Exception hierarchy shared by every collapseguard module."""

from __future__ import annotations


class CollapseGuardError(Exception):
    """Base class for all errors raised by this package."""


class InputValidationError(CollapseGuardError):
    """An argument fails a structural precondition (shape, finiteness, range)."""


class BoundaryError(CollapseGuardError):
    """A mean-parameter value sits on or outside the open mean domain."""


class DegenerateSelectionError(CollapseGuardError):
    """Filter weights sum to (numerically) zero, so no weighted estimate exists."""


class SimulationOverflowError(CollapseGuardError):
    """A simulated state became non-finite.

    Carries the step index at which the state was lost.
    """

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")

    def __reduce__(self):
        # pickled with its step, so that it comes back whole from a worker process
        return type(self), (self.step, str(self))


class CheckFailureError(CollapseGuardError):
    """An experiment ran fine but a requested acceptance check did not pass."""
