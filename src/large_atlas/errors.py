"""Exception types shared across the package."""


class LargeAtlasError(Exception):
    """Base class for all package-specific errors."""


class NotAPrimePower(LargeAtlasError, ValueError):
    """Raised when an integer is not of the form p^e with p prime, e >= 1."""


class UnsupportedGroup(LargeAtlasError, ValueError):
    """Raised for group selectors outside the supported catalog."""


class GroupParseError(LargeAtlasError, ValueError):
    """Raised when a group name string does not match the grammar."""


class ConstraintViolation(LargeAtlasError, ValueError):
    """Raised when a subgroup entry is instantiated outside its validity domain."""


class AmbiguousSelector(LargeAtlasError, ValueError):
    """Raised when a subgroup selector matches more than one catalog entry."""

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class UnknownCase(LargeAtlasError, KeyError):
    """Raised for unknown sweep or sandwich case identifiers."""

    def __str__(self):
        # KeyError's str is the repr of its key; this one is a message
        return Exception.__str__(self)


class MissingGolden(LargeAtlasError, FileNotFoundError):
    """Raised when a golden file cannot be located."""


class DataIntegrityError(LargeAtlasError, RuntimeError):
    """Raised when a bundled data file fails its load-time validation."""
