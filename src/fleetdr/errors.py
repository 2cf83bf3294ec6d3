"""Exception types shared across the package."""

from __future__ import annotations


class FleetdrError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FleetdrError, ValueError):
    """A configuration or parameter value is invalid.

    The message always names the offending field/path.
    """


class DataError(FleetdrError, ValueError):
    """An input file is malformed (bad header, row count, value range...)."""


class InfeasibleError(FleetdrError):
    """A scheduling subproblem (or a whole sweep) has no feasible solution.

    Attributes:
        user_id: id of the user whose subproblem failed, when applicable.
        constraint: short name of the binding constraint class:
            "energy balance", "state-of-charge" or "demand cap".
        detail: free-form human-readable diagnosis.
    """

    def __init__(self, detail: str, user_id: int | None = None,
                 constraint: str | None = None):
        self.user_id = user_id
        self.constraint = constraint
        self.detail = detail
        prefix = f"user {user_id}: " if user_id is not None else ""
        middle = f"[{constraint}] " if constraint else ""
        super().__init__(f"{prefix}{middle}{detail}")
