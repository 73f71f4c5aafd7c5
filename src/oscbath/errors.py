"""Exception types shared across the package."""

__all__ = ["ProfileDomainError", "IntegrationError", "ConfigError"]


class ProfileDomainError(ValueError):
    """Time argument lies outside a profile's declared domain."""


class IntegrationError(RuntimeError):
    """Numerical integration failed.  Carries the time of failure."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class ConfigError(ValueError):
    """Run configuration failed validation.  Names the offending field."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
