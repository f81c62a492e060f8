"""Text codecs for the typed fields of the configuration dataclasses.

The run config and the checkpoint config block both read (and the
checkpoint writes) dataclass field values through these, keyed by the
field's annotation, so a value's text means the same thing in either place.
"""
from __future__ import annotations

import math
from dataclasses import Field
from types import MappingProxyType
from typing import Any, Callable

# Field metadata that keeps a field out of the run config: it is derived
# from the data (input_len) or fixed by the architecture, not a run setting.
NOT_SETTABLE = MappingProxyType({"settable": False})


def settable(field: Field) -> bool:
    return field.metadata.get("settable", True)


def at_least(bound: float) -> MappingProxyType:
    """Field metadata: the field's text parses only to values >= ``bound``."""
    return MappingProxyType({"at_least": bound})


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
    parse, bound = CODECS[field.type][0], field.metadata.get("at_least")
    if bound is None:
        return parse

    def parse_bounded(text: str) -> Any:
        value = parse(text)
        if value < bound:
            raise ValueError(f"must be >= {bound}, got {value}")
        return value
    return parse_bounded


def formatter(field: Field) -> Callable[[Any], str]:
    return CODECS[field.type][1]
