"""Random distribution kinds shared by the generator and the workload.

Every random step of the benchmark draws from its own deterministic
substream, derived from the experiment seed and a step label, so that
adding draws to one step never shifts the values seen by another.

Every bounded integer draw follows one rule: a value in [lo, hi] is
`lo + r`, where r is the first `getrandbits(bits)` below the width
`hi - lo + 1`, and `bits` is the width's bit length. That is the rejection
sampling `random.Random.randint(lo, hi)` runs on every CPython from 3.10
on, so the draws take the same words from the Mersenne Twister stream and
give the same values; databases and reports written by earlier versions,
which called `randint`, are reproduced byte for byte. The rule is not
spelled as `randint` because `randint` spends about ten Python-level
calls per draw re-deriving values that are fixed per draw site. Here a
drawer is built once per site (`bounded_drawer`, `position_drawer`), with
the width and bit length computed up front, and each draw is one call.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Union

from .errors import ParameterError


@dataclass(frozen=True)
class Uniform:
    """Uniform draw over the legal interval of the use site."""


@dataclass(frozen=True)
class Constant:
    """Always the same value; must lie inside the legal interval."""

    value: int


@dataclass(frozen=True)
class Special:
    """Locality-of-reference draw: with `locality_probability` the pick
    stays within +/- `refzone` of the anchor position, otherwise it is
    uniform over the whole interval."""

    refzone: int
    locality_probability: float = 0.9

    def __post_init__(self):
        if self.refzone < 0:
            raise ParameterError(f"refzone must be >= 0 (got {self.refzone})")
        if not 0.0 <= self.locality_probability <= 1.0:
            raise ParameterError("locality_probability must be in [0, 1] "
                                 f"(got {self.locality_probability})")


Distribution = Union[Uniform, Constant, Special]


def substream(seed: int, label: str) -> random.Random:
    """Independent deterministic child stream for one step of the benchmark.

    The child seed is the first 8 bytes of sha256(seed:label), so streams
    are uncorrelated and stable across platforms.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def parse_distribution(text: str) -> Distribution:
    """Parse 'uniform', 'constant:V' or 'special:REFZONE[:PROB]'."""
    parts = text.strip().lower().split(":")
    kind = parts[0]
    try:
        if kind == "uniform" and len(parts) == 1:
            return Uniform()
        if kind == "constant" and len(parts) == 2:
            return Constant(int(parts[1]))
        if kind == "special" and len(parts) in (2, 3):
            prob = float(parts[2]) if len(parts) == 3 else 0.9
            return Special(int(parts[1]), prob)
    except ValueError as exc:
        raise ParameterError(f"bad distribution {text!r}: {exc}") from None
    raise ParameterError(f"bad distribution {text!r}")


def format_distribution(dist: Distribution) -> str:
    if isinstance(dist, Uniform):
        return "uniform"
    if isinstance(dist, Constant):
        return f"constant:{dist.value}"
    if isinstance(dist, Special):
        return f"special:{dist.refzone}:{dist.locality_probability}"
    raise ParameterError(f"unknown distribution {dist!r}")


def validate_distribution(dist: Distribution, lo: int, hi: int, site: str,
                          allow_special: bool = False) -> None:
    """Check a distribution against the legal interval and kinds of its site."""
    if isinstance(dist, Constant):
        if not lo <= dist.value <= hi:
            raise ParameterError(
                f"{site}: constant {dist.value} outside [{lo}, {hi}]")
    elif isinstance(dist, Special):
        if not allow_special:
            raise ParameterError(f"{site}: special distribution needs an "
                                 "anchor and is only valid for object references")
    elif not isinstance(dist, Uniform):
        raise ParameterError(f"{site}: unknown distribution {dist!r}")


def _uniform_drawer(rng: random.Random, lo: int, hi: int) -> Callable[..., int]:
    """The one bounded draw: uniform over [lo, hi], as `rng.randint(lo, hi)`.

    It redraws `getrandbits(bits)` until the value is below the interval's
    width, which is the rejection sampling `randint` runs, so the two take
    the same words from the stream and return the same values. The drawer
    ignores an argument, so that it can serve as a position drawer too.
    """
    width = hi - lo + 1
    if width < 1:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    bits = width.bit_length()
    getrandbits = rng.getrandbits

    def draw(_anchor: int | None = None) -> int:
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        return lo + r

    return draw


def bounded_drawer(dist: Distribution, rng: random.Random, lo: int,
                   hi: int) -> Callable[[], int]:
    """Drawer of values in [lo, hi]; interval validity was checked up front."""
    if isinstance(dist, Uniform):
        return _uniform_drawer(rng, lo, hi)
    if isinstance(dist, Constant):
        value = dist.value
        return lambda: value
    raise ParameterError("special distribution used without an anchor")


def position_drawer(dist: Distribution, rng: random.Random, lo: int, hi: int,
                    length: int) -> Callable[[int | None], int | None]:
    """Drawer of 1-based positions into a collection of `length` members.

    The drawer takes the anchor, the drawing object's own position, which
    Special draws centre their window on; with no anchor (None) a Special
    draw is uniform over the whole collection and flips no locality coin.
    Bounds clamp to [1, length]; the drawer returns None when no legal
    position exists.
    """
    if length <= 0:
        return lambda _anchor: None
    if isinstance(dist, Special):
        anyplace = _uniform_drawer(rng, 1, length)
        random_ = rng.random
        locality = dist.locality_probability
        refzone = dist.refzone
        offset = _uniform_drawer(rng, -refzone, refzone)  # from a window's centre
        last_inside = length - refzone

        def draw(anchor: int | None) -> int:
            if anchor is None or random_() >= locality:
                return anyplace()
            if refzone < anchor <= last_inside:
                return anchor + offset()
            # the window reaches past an end: clamp it, then draw inside it
            center = min(max(anchor, 1), length)
            return _uniform_drawer(rng, max(1, center - refzone),
                                   min(length, center + refzone))()

        return draw
    if isinstance(dist, Constant):
        position = min(max(dist.value, 1), length)
        return lambda _anchor: position
    a = max(1, lo)
    b = min(length, hi)
    if a > b:
        return lambda _anchor: None
    return _uniform_drawer(rng, a, b)
