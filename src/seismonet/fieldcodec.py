"""Text codecs and range bounds for the typed fields of the config dataclasses.

The run config and the checkpoint config block both read (and the
checkpoint writes) dataclass field values through these, keyed by the
field's annotation, so a value's text means the same thing in either place.
A field's range is its metadata (``bounded``), checked by ``out_of_bound``
both when its text is parsed and when its dataclass is built.
"""
from __future__ import annotations

import math
from dataclasses import Field, dataclass, fields
from types import MappingProxyType
from typing import Any, Callable

from .errors import ValidationError

# Field metadata that keeps a field out of the run config: it is derived
# from the data (input_len) or fixed by the architecture, not a run setting.
NOT_SETTABLE = MappingProxyType({"settable": False})


def settable(field: Field) -> bool:
    return field.metadata.get("settable", True)


@dataclass(frozen=True)
class Bound:
    """A range: a low end and an optional high end, each open or closed."""

    low: float
    high: float = math.inf
    open_low: bool = False
    open_high: bool = False

    def __contains__(self, value: Any) -> bool:  # False for NaN
        return ((self.low < value) if self.open_low else (self.low <= value)) and \
            ((value < self.high) if self.open_high else (value <= self.high))

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"{'>' if self.open_low else '>='} {self.low}"
        return (f"in {'(' if self.open_low else '['}{self.low}, "
                f"{self.high}{')' if self.open_high else ']'}")


def bounded(low: float, high: float = math.inf, *, open_low: bool = False,
            open_high: bool = False) -> MappingProxyType:
    """Field metadata: the field's values lie in this ``Bound``."""
    return MappingProxyType({"bound": Bound(low, high, open_low, open_high)})


def out_of_bound(field: Field, value: Any) -> str | None:
    """The message for a ``value`` outside ``field``'s bound; None inside it."""
    bound = field.metadata.get("bound")
    if bound is None or value in bound:
        return None
    return f"must be {bound}, got {value}"


def check_bounds(instance: Any, error: type[Exception] = ValidationError) -> None:
    """Raise ``error`` naming the first field of a dataclass outside its bound."""
    for field in fields(instance):
        message = out_of_bound(field, getattr(instance, field.name))
        if message:
            raise error(f"{field.name} {message}")


class Bounded:
    """Base of a dataclass whose field bounds are checked when it is built."""

    def __post_init__(self):
        check_bounds(self)


def parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_int_tuple(text: str) -> tuple[int, ...]:
    # Every comma-separated part must be an integer; an empty part is an error.
    return tuple(int(part) for part in text.split(","))


# annotation -> (parse, format)
CODECS: dict[str, tuple[Callable[[str], Any], Callable[[Any], str]]] = {
    "str": (str, str),
    "int": (int, str),
    "int | None": (int, str),
    "float": (parse_float, repr),
    "bool": (parse_bool, str),
    "tuple[int, ...]": (parse_int_tuple, lambda values: ",".join(map(str, values))),
}


def parser(field: Field) -> Callable[[str], Any]:
    parse = CODECS[field.type][0]

    def parse_in_bound(text: str) -> Any:
        value = parse(text)
        message = out_of_bound(field, value)
        if message:
            raise ValueError(message)
        return value
    return parse_in_bound


def formatter(field: Field) -> Callable[[Any], str]:
    return CODECS[field.type][1]
