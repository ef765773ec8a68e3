"""Each config field's bounds, declared beside the field, and the one check
of a value against its field's annotation and bounds."""

from __future__ import annotations

import dataclasses
import operator
import sys

# annotation name -> accepted value types; an int may stand for a float
TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "tuple": (tuple,),
         "None": (type(None),)}
# bound name -> (test of value against limit, sign in the message)
BOUNDS = {"low": (operator.ge, ">="), "above": (operator.gt, ">"),
          "high": (operator.le, "<="), "below": (operator.lt, "<")}


def setting(default, **bounds):
    """A config field with ``bounds``, each a ``BOUNDS`` name and its limit;
    a None value meets every bound."""
    return dataclasses.field(default=default, metadata=bounds)


def check_value(field: dataclasses.Field, value) -> None:
    """Raise ValueError unless ``value`` has a type that the field's annotation
    names, is finite (an int standing for a float must lie in the float range,
    and is kept as given) and meets the field's bounds."""
    names = field.type.split(" | ")
    if type(value) not in sum((TYPES[name] for name in names), ()):
        raise ValueError(f"{field.name} must be {field.type}, got {value!r}")
    if "float" in names and type(value) in (int, float):
        got = "an integer past the float range" if type(value) is int else repr(value)
        require_finite(lambda: value, f"{field.name} must be finite, got {got}")
    for bound, limit in field.metadata.items():
        test, sign = BOUNDS[bound]
        if value is not None and not test(value, limit):
            raise ValueError(f"{field.name} must be {sign} {limit}, got {value!r}")


def check_fields(config) -> None:
    """``check_value`` on every field of the dataclass instance ``config``."""
    for field in dataclasses.fields(config):
        check_value(field, getattr(config, field.name))


def require_finite(compute, message: str) -> None:
    """Raise ValueError(message) unless ``compute()`` returns a finite number;
    an int past the float range, or an OverflowError on the way, is not."""
    try:
        finite = abs(compute()) <= sys.float_info.max
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(message)
