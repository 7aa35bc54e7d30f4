"""Exception types shared across the toolkit."""


class PlanningError(Exception):
    """Base class for all toolkit errors."""


class UsageError(PlanningError, ValueError):
    """A caller violated a documented precondition (bad parameter, bad call)."""


def _whole(value) -> int:
    """int(value); UsageError for a value that is not a whole number (2.5, nan, 'x')."""
    try:
        out = int(value)
        if isinstance(value, float) and out != value:
            raise ValueError(value)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{value!r} is not a whole number") from None
    return out


class ScenarioParseError(PlanningError):
    """Scenario document is structurally malformed (bad JSON, missing field)."""


class ScenarioValidationError(PlanningError):
    """Scenario document parsed but is semantically invalid.

    Carries the path of the offending field, e.g. ``obstacles[1].radius``.
    """

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


class SaturationError(PlanningError):
    """Free-space rejection sampling exhausted its attempt budget."""


class AuditError(PlanningError):
    """A structural invariant audit found a violation."""
