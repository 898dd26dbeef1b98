"""Shared exception base for the hrfna package."""


class HrfnaError(Exception):
    """Base class for every error raised by this package."""


class InvariantViolation(HrfnaError, ValueError):
    """A configuration violates a named invariant; also a ValueError, as a bad value."""

    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"{name}: {detail}")
