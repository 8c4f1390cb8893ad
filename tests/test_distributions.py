import pytest

from helpers import reference_draw_position
from ocb.distributions import (
    Constant,
    Special,
    Uniform,
    bounded_drawer,
    format_distribution,
    parse_distribution,
    position_drawer,
    substream,
    validate_distribution,
)
from ocb.errors import ParameterError


def test_parse_format_roundtrip():
    for text, expected in (
        ("uniform", Uniform()),
        ("constant:3", Constant(3)),
        ("special:200:0.9", Special(200, 0.9)),
        ("special:50", Special(50, 0.9)),
    ):
        dist = parse_distribution(text)
        assert dist == expected
        assert parse_distribution(format_distribution(dist)) == dist


@pytest.mark.parametrize("bad", ["", "gaussian", "constant", "constant:x",
                                 "special", "special:a:b", "uniform:1"])
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(ParameterError):
        parse_distribution(bad)


def test_substream_deterministic_and_independent():
    a1 = substream(42, "x")
    a2 = substream(42, "x")
    b = substream(42, "y")
    seq_a1 = [a1.random() for _ in range(10)]
    seq_a2 = [a2.random() for _ in range(10)]
    seq_b = [b.random() for _ in range(10)]
    assert seq_a1 == seq_a2
    assert seq_a1 != seq_b


def test_bounded_drawer_constant_and_uniform():
    rng = substream(0, "t")
    assert bounded_drawer(Constant(5), rng, 1, 10)() == 5
    draw = bounded_drawer(Uniform(), rng, 3, 4)
    values = {draw() for _ in range(100)}
    assert values == {3, 4}
    with pytest.raises(ParameterError):
        bounded_drawer(Special(10, 0.9), rng, 1, 10)


def test_position_drawer_clamps_special_window():
    rng = substream(0, "p")
    draw = position_drawer(Special(10, 1.0), rng, 1, 10 ** 6, 100)
    # anchor far beyond the iterator length clamps into [1, length]
    for _ in range(50):
        assert 90 <= draw(5000) <= 100
    # anchor inside: window is [anchor-rz, anchor+rz]
    draw = position_drawer(Special(2, 1.0), rng, 1, 10 ** 6, 100)
    for _ in range(50):
        assert 48 <= draw(50) <= 52


def test_position_drawer_empty_cases():
    rng = substream(0, "q")
    assert position_drawer(Uniform(), rng, 1, 10, 0)(1) is None
    assert position_drawer(Uniform(), rng, 50, 60, 10)(1) is None  # interval above length
    assert position_drawer(Constant(120), rng, 1, 200, 10)(1) == 10  # clamped
    assert position_drawer(Special(3, 0.9), rng, 1, 10, 0)(1) is None


# widths 1, 2**k - 1, 2**k, 2**k + 1, one above 2**32, and up to 2**62
WIDTHS = [1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 2 ** 32 + 1, 2 ** 62 - 1, 2 ** 62,
          2 ** 62 + 1]


@pytest.mark.parametrize("width", WIDTHS)
def test_uniform_drawers_consume_what_randint_consumes(width):
    for lo in (1, 0, -3, 10 ** 6):
        hi = lo + width - 1
        ours, theirs = substream(width, f"twin:{lo}"), substream(width, f"twin:{lo}")
        draw = bounded_drawer(Uniform(), ours, lo, hi)
        for _ in range(40):
            assert draw() == theirs.randint(lo, hi)
            assert ours.getstate() == theirs.getstate()
    ours, theirs = substream(width, "twin-position"), substream(width, "twin-position")
    draw = position_drawer(Uniform(), ours, 1, width, width)
    for anchor in range(40):
        assert draw(anchor) == theirs.randint(1, width)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("refzone", [0, 1, 3, 40, 200])
@pytest.mark.parametrize("length", [1, 2, 7, 100])
def test_special_drawer_matches_the_randint_window(refzone, length):
    # anchors below 1, inside, at both ends and above `length`
    anchors = [-5, 0, 1, 2, length // 2 + 1, length - 1, length, length + 1, 10 ** 6]
    for probability in (0.0, 0.5, 1.0):
        dist = Special(refzone, probability)
        ours = substream(refzone, f"special:{length}:{probability}")
        theirs = substream(refzone, f"special:{length}:{probability}")
        draw = position_drawer(dist, ours, 1, 10 ** 6, length)
        for anchor in anchors * 10:
            assert draw(anchor) == reference_draw_position(dist, theirs, 1, 10 ** 6, length,
                                                           anchor)
            assert ours.getstate() == theirs.getstate()
        # with no anchor, the draw is uniform over the whole collection
        for _ in range(20):
            assert draw(None) == theirs.randint(1, length)
            assert ours.getstate() == theirs.getstate()


def test_validate_distribution_site_checks():
    validate_distribution(Constant(3), 1, 4, "dist1")
    with pytest.raises(ParameterError):
        validate_distribution(Constant(5), 1, 4, "dist1")
    with pytest.raises(ParameterError):
        validate_distribution(Special(10, 0.9), 1, 4, "dist1")
    validate_distribution(Special(10, 0.9), 1, 4, "dist4", allow_special=True)
    with pytest.raises(ParameterError):
        validate_distribution(Special(10, 1.5), 1, 4, "dist4", allow_special=True)
    with pytest.raises(ParameterError):
        validate_distribution(Special(-1, 0.5), 1, 4, "dist4", allow_special=True)
