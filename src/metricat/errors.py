"""Shared exception types and the one work budget."""
from __future__ import annotations

DEFAULT_BUDGET = 300_000  # units of work per top-level call: an admitted run ends in seconds


class SizeGuardError(RuntimeError):
    """A search or construction would exceed its work budget."""


class Budget:
    """The work one top-level call may do.  A search node, half-map step, map
    pair scanned, Lipschitz extension, arrow or composition entry costs one
    unit; a construction charges its size before it builds anything."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        self.limit, self.used = DEFAULT_BUDGET if limit is None else limit, 0

    @classmethod
    def of(cls, guard: int | Budget | None) -> Budget:
        """A budget already being charged, else a new one of limit `guard`
        (`DEFAULT_BUDGET` when None)."""
        return guard if isinstance(guard, Budget) else cls(guard)

    def spend(self, k: int, phase: str, units: str) -> None:
        self.used += k
        if self.used > self.limit:
            raise SizeGuardError(f"{phase} exceeded its budget of {self.limit} {units}; used {self.used}")


class InputFormatError(ValueError):
    """A JSON payload is structurally malformed."""


class PreconditionError(ValueError):
    """A stated precondition of an operation fails; the message names it."""


class TheoremViolation(RuntimeError):
    """A certified internal invariant failed; indicates a bug, not bad input."""
