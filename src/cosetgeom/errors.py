"""Exception types shared across the package."""

from __future__ import annotations

from typing import Optional


class CosetGeomError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CosetGeomError):
    """Malformed scenario text (group string, word, schedule, config file)."""


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
    least; None where no radius can be named in advance.  The message names
    it as it stands when the error is printed."""

    def __init__(self, message: str, required_radius: Optional[int] = None):
        super().__init__(message)
        self.required_radius = required_radius

    def __str__(self) -> str:
        message = super().__str__()
        if self.required_radius is None:
            return message
        return f"{message} (suggest radius >= {self.required_radius})"


class ScheduleExceedsBallError(InsufficientRadiusError):
    """An ends schedule asks for annuli outside the reliable region."""


class EmptyCosetInBallError(InsufficientRadiusError):
    """The translated coset has no representative inside the ball."""


class NoRouteWithinBallError(InsufficientRadiusError):
    """No escape route exists inside the ball; retry with a larger one."""


class EscapeBlockedError(CosetGeomError):
    """The start vertex sits inside the blocked closure of the obstacle."""


class ConstantViolationError(CosetGeomError):
    """A certified bound (F or M) failed during construction: a lift or
    ladder found no transfer walk shorter than F, or no rung within M."""
