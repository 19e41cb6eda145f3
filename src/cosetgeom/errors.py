"""Exception types shared across the package."""

from __future__ import annotations

from typing import Optional


class CosetGeomError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CosetGeomError):
    """Malformed scenario text (group string, word, schedule, config file)."""


class SubgroupModeError(CosetGeomError):
    """Operation requires the other subgroup mode."""


class BallOverflowError(CosetGeomError):
    """Ball construction exceeded the vertex budget."""

    def __init__(self, radius_reached: int, count: int, budget: int):
        self.radius_reached = radius_reached
        self.count = count
        self.budget = budget
        super().__init__(
            f"ball exceeded budget of {budget} vertices at radius "
            f"{radius_reached} (count {count})"
        )


class NotStabilizedError(CosetGeomError):
    """A constant did not stabilize across the top radii."""

    def __init__(self, name: str, values):
        self.name = name
        self.values = tuple(values)
        super().__init__(f"{name} did not stabilize: {self.values}")


class NotCommensuratedError(CosetGeomError):
    """Q meets some s Q s^-1 in a subgroup of lower rank than Q itself."""

    def __init__(self, letters):
        self.letters = tuple(letters)
        super().__init__(
            "Q is not commensurated: its transfer subgroup has lower rank "
            f"than Q for letters {', '.join(self.letters)}"
        )


class InsufficientRadiusError(CosetGeomError):
    """A requested in-ball construction does not fit inside the ball.

    required_radius, when known, is a ball radius the construction needs at
    least; None where no radius can be named in advance."""

    def __init__(self, message: str, required_radius: Optional[int] = None):
        self.required_radius = required_radius
        if required_radius is not None:
            message = f"{message} (suggest radius >= {required_radius})"
        super().__init__(message)


class ScheduleExceedsBallError(InsufficientRadiusError):
    """An ends schedule asks for annuli outside the reliable region."""


class EmptyCosetInBallError(InsufficientRadiusError):
    """The translated coset has no representative inside the ball."""


class NoTransferVertexError(CosetGeomError):
    """No transfer vertex within the promised search depth."""


class NoRouteWithinBallError(InsufficientRadiusError):
    """No escape route exists inside the ball; retry with a larger one."""


class EscapeBlockedError(CosetGeomError):
    """The start vertex sits inside the blocked closure of the obstacle."""


class ConstantViolationError(CosetGeomError):
    """A certified bound (F or M) failed during construction."""
