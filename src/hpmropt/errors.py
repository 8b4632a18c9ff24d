"""Exception hierarchy shared by all hpmropt modules, and the two value
checks that configuration classes use before raising ``ConfigError``."""

import math

import numpy as np


class HpmroptError(Exception):
    """Base class for all package errors."""


class BoundsDomainError(HpmroptError):
    """A coupled-bound request was made outside the pitch domain."""


class DecodeError(HpmroptError):
    """Unit-cube coordinates outside [0, 1] cannot be decoded."""


class ContractError(HpmroptError):
    """An operation was called with arguments violating its preconditions."""


class NormalizationError(HpmroptError):
    """Relative normalization against a zero limit is undefined."""


class TableLoadError(HpmroptError):
    """A sample table file is malformed or contains duplicate sites."""


class ConfigError(HpmroptError):
    """Run or scenario configuration is invalid."""


class EvaluationError(HpmroptError):
    """Design evaluation failed or was attempted with an unusable model."""


def _is_integer(value) -> bool:
    """A Python or numpy integer; a boolean is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite real number; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        return False
    return isinstance(value, (int, np.integer)) or math.isfinite(value)
