"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4.
"""

import math
from dataclasses import fields


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


def check_finite(options) -> None:
    """Refuse a dataclass of options any field of which holds a NaN or
    an infinity, alone or in a tuple or list, naming the first such field."""
    for f in fields(options):
        value = getattr(options, f.name)
        items = list(value) if isinstance(value, (tuple, list)) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ConfigError(f"{f.name} must be finite, got {value}")
