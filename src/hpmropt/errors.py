"""Exception hierarchy shared by all hpmropt modules, and the rules that
configuration classes check their fields against.

A rule is a plain ``(description, test)`` pair, and each configuration
class keeps a table of them, one per field.  ``check`` raises for the first
field whose value fails its test, as ``"<where><key> must be <description>,
got <value!r>"``.
"""

import math
import sys

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
    """A real number that is finite as a float; a boolean is not one."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


def check(obj, rules: dict, where: str = "", error=ConfigError) -> None:
    """Check each field of ``obj``, an attribute or a dict key, against its rule."""
    for key, (text, test) in rules.items():
        value = obj[key] if isinstance(obj, dict) else getattr(obj, key)
        if not test(value):
            raise error(f"{where}{key} must be {text}, got {value!r}")


def read_lines(path, what: str, newline: str | None = None) -> list[str]:
    """The lines of the UTF-8 text file at ``path``, less a leading
    byte-order mark, each with its line end (``newline`` as ``open`` takes
    it).  A missing file, a directory or undecodable bytes is a
    ``ConfigError`` that names ``what`` and the path."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            return fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def reject_unknown(mapping, known, where: str) -> None:
    """Raise ``ConfigError`` unless ``mapping`` is a dict with no key outside ``known``."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}expected an object, got {mapping!r}")
    if unknown := sorted(set(mapping) - set(known)):
        raise ConfigError(f"{where}unknown keys {unknown}")


def integer(least, most=math.inf):
    bound = f"of at least {least}" if most == math.inf else f"in [{least}, {most}]"
    return f"an integer {bound}", lambda v: _is_integer(v) and least <= v <= most


def within(lo, hi, open_top=False):
    """A number in [lo, hi], or in [lo, hi) when ``open_top``."""
    return (f"a number in [{lo}, {hi}{')' if open_top else ']'}",
            lambda v: _is_number(v) and lo <= v and (v < hi if open_top else v <= hi))


def one_of(*values):
    return f"one of {list(values)}", lambda v: v in values


def optional(rule):
    return f"{rule[0]} (or null)", lambda v: v is None or rule[1](v)


def list_of(rule, length=None):
    """A list of values passing ``rule``: ``length`` of them, or any number."""
    return (f"a list of {length or 'any number of'} values, each {rule[0]}",
            lambda v: isinstance(v, (list, tuple)) and length in (None, len(v))
            and all(map(rule[1], v)))


NUMBER = "a finite number", _is_number
NON_NEGATIVE = "a finite non-negative number", lambda v: _is_number(v) and v >= 0
POSITIVE = "a finite positive number", lambda v: _is_number(v) and v > 0
STRING = "a string", lambda v: isinstance(v, str)
