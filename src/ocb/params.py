"""Parameter groups: one dataclass field per parameter.

A field's name is its configuration key and, with '-' for '_', its flag.
Its annotation names a `Kind`: how a value is read from flag or config
file text, written to JSON (report.json, the workload fingerprint, the
database file) and read back from JSON. Its bounds, if it has any, are
declared on it with `bounded`, and `ParamGroup.validate` checks them. So a
parameter is a field with its bounds, plus any check that relates it to
other fields in its group's `validate()`, and nothing else. A field made
by a `default_factory` holds records that were checked when they were made:
`validate` skips it, its JSON form is its own `to_dict()`, and `from_dict`
reads it back with the factory's `from_dict`. A group is checked once, when
it is made; the engine's groups are frozen, so no code that uses one checks
it again, and `dataclasses.replace` varies one.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, Field, field, fields
from typing import Callable, NamedTuple

from .distributions import format_distribution, parse_distribution
from .errors import ParameterError


class Kind(NamedTuple):
    read: Callable  # stripped flag or config-file text -> value
    load: Callable  # JSON form -> value; TypeError when the JSON type is wrong
    dump: Callable = lambda value: value  # value -> JSON form


def _exactly(*types: type) -> Callable:
    """JSON reader that passes values of exactly these types (so bool is not int)."""
    def load(value):
        if type(value) not in types:
            raise TypeError(f"{value!r} is not {' or '.join(t.__name__ for t in types)}")
        return value
    return load


def _int_list(value) -> tuple[int, ...]:
    if type(value) is not list or not all(type(v) is int for v in value):
        raise TypeError(f"{value!r} is not a list of ints")
    return tuple(value)


def _finite(text: str) -> float:
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {text}")
    return number


def _finite_json(value):
    """JSON reader for a finite float or int; an int past the float range is not."""
    _exactly(float, int)(value)
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("not a finite number")
    return value


def _boolean(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text}")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


KINDS: dict[str, Kind] = {
    "int": Kind(int, _exactly(int)),
    "int | None": Kind(int, _exactly(int, type(None))),
    "float": Kind(_finite, lambda v: float(_finite_json(v))),
    "float | None": Kind(_finite, lambda v: v if v is None else _finite_json(v)),
    "bool": Kind(_boolean, _exactly(bool)),
    "str": Kind(str, _exactly(str)),
    "str | None": Kind(str, _exactly(str, type(None))),
    # one value for every class, or a comma list with one entry per class
    "int | tuple[int, ...]": Kind(lambda text: _ints(text) if "," in text else int(text),
                                  lambda v: v if type(v) is int else _int_list(v),
                                  lambda v: v if isinstance(v, int) else list(v)),
    "frozenset[int]": Kind(lambda text: frozenset(_ints(text)),
                           lambda v: frozenset(_int_list(v)), sorted),
    "Distribution": Kind(parse_distribution, lambda v: parse_distribution(_exactly(str)(v)),
                         format_distribution),
}


def _decode(reader: Callable, key: str, value):
    try:
        return reader(value)
    except (TypeError, ValueError, ParameterError) as exc:
        raise ParameterError(f"bad value for {key}: {exc}") from None


def read_json(annotation: str, key: str, value):
    """Read one value from its JSON form; ParameterError names `key`."""
    return _decode(KINDS[annotation].load, key, value)


def read_text(annotation: str, key: str, value):
    """Read one parameter from flag or config-file text; other values pass as-is."""
    if not isinstance(value, str):
        return value
    return _decode(KINDS[annotation].read, key, value.strip())


def bounded(default, low, high=None):
    """A field whose value, or each entry of a per-class list, lies in [low, high]."""
    return field(default=default, metadata={"bounds": (low, high)})


def check_field(obj, f: Field) -> None:
    """Raise ParameterError when field `f` of dataclass `obj` holds a value
    not of its kind, a float that is not finite, or a value, or an entry of
    a per-class tuple or list, outside the bounds declared with `bounded`.

    A value is of its kind when its JSON form reads back, so a `float` field
    takes an int, a per-class field a tuple or a list, and an `int` field no
    bool. None lies in any bounds."""
    value = getattr(obj, f.name)
    kind = KINDS[f.type]
    try:
        kind.load(kind.dump(value))
    except ValueError:  # only the float readers raise it, for a non-finite value
        raise ParameterError(f"{f.name} must be a finite number (got {value})") from None
    except (TypeError, ParameterError):
        raise ParameterError(f"{f.name} must be {f.type} (got {value!r})") from None
    if "bounds" not in f.metadata:
        return
    low, high = f.metadata["bounds"]
    for entry in value if isinstance(value, (list, tuple)) else (value,):
        if entry is not None and (entry < low or (high is not None and entry > high)):
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ParameterError(f"{f.name} must be {bound} (got {entry})")


class ParamGroup:
    """Mixin for a parameter dataclass: its JSON form and its value checks,
    derived from its fields. The checks run when the group is made, and skip
    a `default_factory` field, whose records were checked when they were made."""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ParameterError for the first field, in declaration order,
        that `check_field` rejects."""
        for f in fields(self):
            if f.default_factory is MISSING:
                check_field(self, f)

    def to_dict(self) -> dict:
        return {f.name: KINDS[f.type].dump(getattr(self, f.name)) if f.default_factory is MISSING
                else getattr(self, f.name).to_dict() for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        """Inverse of `to_dict`. Raises ParameterError when `d` is not a JSON
        object, or naming a missing or unknown key, or a key whose value has
        the wrong JSON type or form."""
        if not isinstance(d, dict):
            raise ParameterError(f"{cls.__name__} must be a JSON object "
                                 f"(got {type(d).__name__})")
        names = {f.name for f in fields(cls)}
        if d.keys() != names:
            missing, unknown = sorted(names - d.keys()), sorted(d.keys() - names)
            raise ParameterError(f"keys must be the fields: missing {missing}, "
                                 f"unknown {unknown}")
        return cls(**{f.name: read_json(f.type, f.name, d[f.name]) if f.default_factory is MISSING
                      else _decode(f.default_factory.from_dict, f.name, d[f.name])
                      for f in fields(cls)})
