"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4.
"""


class DmdEmbedError(Exception):
    """Base class for all package errors."""


class ConfigError(DmdEmbedError):
    """Invalid or inconsistent configuration."""


class DataError(DmdEmbedError):
    """Malformed, missing, or insufficient input data."""


class NumericalError(DmdEmbedError):
    """A numerical procedure failed on otherwise valid input."""


class EmptySpectrumError(NumericalError):
    """Every singular value fell below the round-off floor."""
